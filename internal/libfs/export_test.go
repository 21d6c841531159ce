package libfs

// FreeStaged exposes freeStaged to the external tests.
var FreeStaged = (*Session).freeStaged

// FlushWaiting reports how many drains are waiting for read sections to
// close.
func FlushWaiting(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushWaiting
}

// PartitionSpans returns each shard mapping's partition as [start, end).
func PartitionSpans(s *Session) [][2]uint64 {
	spans := make([][2]uint64, len(s.mappings))
	for i, mp := range s.mappings {
		start, size := mp.Span()
		spans[i] = [2]uint64{start, start + size}
	}
	return spans
}
