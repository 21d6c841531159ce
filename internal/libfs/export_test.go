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
