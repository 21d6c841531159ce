package sobj

// Worst-case allocation demand estimators for the TFS's space admission:
// before journaling a batch, the trusted side reserves every byte the
// apply phase could possibly allocate, so a committed batch can never fail
// on space (see internal/tfs). The estimates here are deliberately
// pessimistic — over-reservation is released right after apply, while
// under-reservation would re-open the committed-but-unappliable window.

// ColGeometry captures the collection fields the admission simulation needs
// to project rehash and overflow costs across a batch.
type ColGeometry struct {
	Buckets  uint32 // current table bucket count
	Count    uint32 // live entries
	Tombs    uint32 // tombstoned entries
	Overflow int    // overflow extents currently chained
}

// Geometry reads the collection's current geometry.
func (c *Collection) Geometry() (ColGeometry, error) {
	var g ColGeometry
	table, nb, err := c.table()
	if err != nil {
		return g, err
	}
	count, err := c.Count()
	if err != nil {
		return g, err
	}
	tombs, err := c.tombstones()
	if err != nil {
		return g, err
	}
	if err := c.eachOverflow(table, nb, func(uint64) error { g.Overflow++; return nil }); err != nil {
		return g, err
	}
	g.Buckets = nb
	g.Count = count
	g.Tombs = tombs
	return g, nil
}

// GrowThreshold reports whether an insert at the projected count would
// trigger a grow rehash under the default policy.
func (g ColGeometry) GrowThreshold() bool {
	return g.Count >= g.Buckets*entriesPerBucketTarget
}

// GCBuckets returns the bucket count a tombstone GC of this geometry
// rebuilds the table with (never more than Buckets).
func (g ColGeometry) GCBuckets() uint32 { return gcBuckets(g.Count, g.Buckets) }

// TableSizeFor returns the size of a table with nb buckets: buckets only,
// so a power of two for every table this package builds. An 8-bucket table
// lives in its collection's head page, but a GC while it is there builds
// its shadow in a fresh page of this size.
func TableSizeFor(nb uint32) uint64 {
	return uint64(nb) * bucketSize
}

// OverflowExtentSize is the allocation size of one overflow extent.
const OverflowExtentSize = ovfSize

// RehashOverflowBound bounds the overflow extents a rehash of this geometry
// could allocate: every record could land in a single chain, so the spill is
// capped by the bytes the old structure could have held.
func (g ColGeometry) RehashOverflowBound() int {
	return g.Overflow + int(TableSizeFor(g.Buckets)/ovfSize) + 1
}

// AttachDemand appends to dst the worst-case allocation sizes one
// AttachExtent at blockIdx may request from the current tree shape: growth
// nodes to reach the needed depth plus every interior node on the path.
func (m *MFile) AttachDemand(dst []uint64, blockIdx uint64) ([]uint64, error) {
	_, depth, err := m.rootDepth()
	if err != nil {
		return dst, err
	}
	need := depth
	for need == 0 || blockIdx >= capacityBlocks(need) {
		if need >= maxDepth {
			break
		}
		need++
	}
	growth := uint(0)
	if need > depth {
		growth = need - depth
	}
	interior := uint(0)
	if need > 0 {
		interior = need - 1
	}
	for i := uint(0); i < growth+interior; i++ {
		dst = append(dst, uint64(radixNodeSize))
	}
	return dst, nil
}
