package sobj

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync/atomic"

	"github.com/aerie-fs/aerie/internal/scm"
)

// Collection is the associative storage object used to build naming
// structures (§5.3.1): a linear hash table packed into extents, mapping
// byte-string keys to 64-bit object IDs. Untrusted clients read collections
// directly from SCM; all mutations run on the trusted side under the
// collection's write lock.
//
// Layout. The head extent carries the common object header plus:
//
//	0x20 u64 table — the page-aligned table address with log2(nbuckets)
//	     in its low five bits, so growing the table swaps this one word
//	     (the paper's shadow update, §5.3.1: populate new extents, then
//	     publish with one atomic 64-bit write)
//	0x28 u32 count     — live entries
//	0x2c u32 tombstones
//
// The table extent holds nothing but its buckets, bucketSize each, so a
// table is exactly a power of two and fills its buddy block.
//
// A bucket is a record heap: u16 used, then records (u16 tag | key | u64
// value), with the last 8 bytes an overflow-extent pointer. The tag's high
// bit marks a tombstone (§5.3.1: deletes mark a tombstone key; when
// tombstones exceed a threshold the live pairs are rehashed into a new
// table published with a single atomic write).
const (
	offColTable      = 0x20
	offColCount      = 0x28
	offColTombstones = 0x2c

	colHeadSize = 64 // bytes of the head extent in use (flushed)
	// colHeadAlloc is the head extent's allocation: a whole page although
	// only colHeadSize bytes are used, because chmod with hardware
	// protection narrows the head's page (tfs.protectObjectExtents) and no
	// other object may share it.
	colHeadAlloc = scm.PageSize

	bucketSize    = 512
	ovfSize       = 4096 // overflow extents are one page
	tombstoneBit  = 0x8000
	recHeaderLen  = 2
	recValueLen   = 8
	chainPtrLen   = 8
	maxChainDepth = 1024

	// MaxKeyLen bounds collection keys so any record fits in a bucket.
	MaxKeyLen = 400

	// initialBuckets for a fresh collection, and the fewest a table ever
	// has: one page.
	initialBuckets = 8
	minTableLog    = 3 // log2(initialBuckets)
	maxTableLog    = 22
	// growFactor: the table doubles when count exceeds
	// nbuckets*entriesPerBucketTarget.
	entriesPerBucketTarget = 8
)

// Collection provides access to a collection object. A handle caches the
// zero-copy capability of its space and the decoded table header. Handles
// are plain values: a caller declares one (var c Collection) and opens it
// with Open, so a handle that lives for one locked operation is not a heap
// object. Callers follow the lock protocol (one handle per locked
// operation, or a trusted-side handle that performs its own rehashes), so
// the cache can only go stale together with the lock that made reading
// safe in the first place.
type Collection struct {
	mem scm.Space
	sl  scm.Slicer
	oid OID

	// tbl caches the head's validated table word, 0 when nothing is
	// cached. A rehash through this handle, or invalidateTable, clears it.
	// Atomic so lock-protected concurrent readers of a shared handle stay
	// race-free.
	tbl atomic.Uint64
}

// tblLogMask holds log2(nbuckets) in a table word. nbuckets is at most
// 1<<maxTableLog, so five bits suffice; tables are page-aligned.
const tblLogMask = 0x1f

// tableWord packs a table address and its bucket count.
func tableWord(addr uint64, nbuckets uint32) uint64 {
	return addr | uint64(bits.TrailingZeros32(nbuckets))
}

// CreateCollection allocates and initializes a collection (trusted side or
// client staging into pre-allocated extents). perm is the FS-level
// permission word.
func CreateCollection(mem scm.Space, a Allocator, perm uint32) (*Collection, error) {
	head, err := a.Alloc(colHeadAlloc)
	if err != nil {
		return nil, err
	}
	table, err := newTable(mem, a, initialBuckets)
	if err != nil {
		_ = a.Free(head, colHeadAlloc)
		return nil, err
	}
	if err := writeHeader(mem, head, Header{Type: TypeCollection, Perm: perm}); err != nil {
		return nil, err
	}
	if err := scm.Write64(mem, head+offColTable, tableWord(table, initialBuckets)); err != nil {
		return nil, err
	}
	if err := scm.Write32(mem, head+offColCount, 0); err != nil {
		return nil, err
	}
	if err := scm.Write32(mem, head+offColTombstones, 0); err != nil {
		return nil, err
	}
	if err := mem.Flush(head, colHeadSize); err != nil {
		return nil, err
	}
	mem.Fence()
	oid, err := MakeOID(head, TypeCollection)
	if err != nil {
		return nil, err
	}
	return &Collection{mem: mem, sl: scm.AsSlicer(mem), oid: oid}, nil
}

// newTable allocates and initializes an empty table extent of nbuckets
// (a power of two, at least initialBuckets) buckets.
func newTable(mem scm.Space, a Allocator, nbuckets uint32) (uint64, error) {
	size := TableSizeFor(nbuckets)
	addr, err := a.Alloc(size)
	if err != nil {
		return 0, err
	}
	if err := scm.Zero(mem, addr, int(size)); err != nil {
		return 0, err
	}
	if err := mem.Flush(addr, int(size)); err != nil {
		return 0, err
	}
	return addr, nil
}

// OpenCollection validates and opens an existing collection.
func OpenCollection(mem scm.Space, oid OID) (*Collection, error) {
	c := new(Collection)
	if err := c.Open(mem, oid); err != nil {
		return nil, err
	}
	return c, nil
}

// Open is OpenCollection into a handle the caller declares (var c
// Collection), so one that does not outlive its frame — a lookup, an
// apply action — is not a heap object.
func (c *Collection) Open(mem scm.Space, oid OID) error {
	if oid.Type() != TypeCollection {
		return fmt.Errorf("%w: %v is not a collection", ErrBadObject, oid)
	}
	if _, err := ReadHeader(mem, oid); err != nil {
		return err
	}
	*c = Collection{mem: mem, sl: scm.AsSlicer(mem), oid: oid}
	return nil
}

// OID returns the collection's object ID.
func (c *Collection) OID() OID { return c.oid }

// Count returns the number of live entries.
func (c *Collection) Count() (uint32, error) {
	return scm.Read32(c.mem, c.oid.Addr()+offColCount)
}

// tombstones returns the current tombstone count.
func (c *Collection) tombstones() (uint32, error) {
	return scm.Read32(c.mem, c.oid.Addr()+offColTombstones)
}

func (c *Collection) table() (addr uint64, nbuckets uint32, err error) {
	// Fast path: the word validated by a previous operation, valid until
	// this handle rehashes or is invalidated.
	w := c.tbl.Load()
	if w == 0 {
		if w, err = scm.Read64(c.mem, c.oid.Addr()+offColTable); err != nil {
			return 0, 0, err
		}
		// The table's alignment and a bounded bucket count are what a
		// stray or client-forged word has to get right.
		if lg := w & tblLogMask; w&(scm.PageSize-1)&^tblLogMask != 0 || w < scm.PageSize ||
			lg < minTableLog || lg > maxTableLog {
			return 0, 0, fmt.Errorf("%w: bad table word %#x", ErrCorrupt, w)
		}
		c.tbl.Store(w)
	}
	return w &^ tblLogMask, 1 << (w & tblLogMask), nil
}

// invalidateTable drops the cached table header. Call after the table may
// have moved underneath this handle — a remount, or trusted-side changes
// applied through a different handle while no lock covered this one.
func (c *Collection) invalidateTable() { c.tbl.Store(0) }

func hashKey(key []byte) uint32 {
	h := fnv.New32a()
	_, _ = h.Write(key)
	return h.Sum32()
}

// bucketAddr returns the address of key's bucket in the given table.
func bucketAddr(table uint64, nbuckets uint32, key []byte) uint64 {
	return table + uint64(hashKey(key)%nbuckets)*bucketSize
}

// NeedsGrow reports whether the next insert under the default policy would
// rehash the table; FlatFS uses it to decide when to escalate from bucket
// locks to the whole-collection write lock.
func (c *Collection) NeedsGrow(headroom uint32) (bool, error) {
	count, err := c.Count()
	if err != nil {
		return false, err
	}
	tombs, err := c.tombstones()
	if err != nil {
		return false, err
	}
	_, nb, err := c.table()
	if err != nil {
		return false, err
	}
	return count+headroom >= nb*entriesPerBucketTarget || (tombs > 16 && tombs > count/2), nil
}

// BucketLock returns the lock-service ID covering the bucket that holds
// key — FlatFS's fine-grained locks under the collection's intent lock
// (§6.2). Bucket addresses are 64-byte aligned, so the ID is a valid OID
// in the TypeBucket space.
func (c *Collection) BucketLock(key []byte) (uint64, error) {
	table, nb, err := c.table()
	if err != nil {
		return 0, err
	}
	return bucketAddr(table, nb, key) | uint64(TypeBucket), nil
}

// node describes one element of a bucket chain: the primary bucket or an
// overflow extent.
type node struct {
	addr     uint64
	areaLen  uint64 // record area capacity
	chainOff uint64 // offset of the chain pointer
}

func primaryNode(addr uint64) node {
	return node{addr: addr, areaLen: bucketSize - recHeaderLen - chainPtrLen, chainOff: bucketSize - chainPtrLen}
}

func overflowNode(addr uint64) node {
	return node{addr: addr, areaLen: ovfSize - recHeaderLen - chainPtrLen, chainOff: ovfSize - chainPtrLen}
}

// used reads the node's used-bytes counter, validated against capacity.
func (c *Collection) usedOf(n node) (uint64, error) {
	u, err := read16(c.mem, c.sl, n.addr)
	if err != nil {
		return 0, err
	}
	if uint64(u) > n.areaLen {
		return 0, fmt.Errorf("%w: used %d exceeds area %d", ErrCorrupt, u, n.areaLen)
	}
	return uint64(u), nil
}

// record is a decoded record within a node.
type record struct {
	off  uint64 // offset of the tag within the node's record area
	key  []byte
	val  uint64
	dead bool
}

// walkRecords decodes the records of one node, calling fn for each; fn
// returning false stops the walk. On a slicing space the record area is
// walked in place — no per-node allocation or copy; the keys handed to fn
// alias SCM and are only valid during the call (as documented on Iterate).
func (c *Collection) walkRecords(n node, fn func(r record) (bool, error)) error {
	used, err := c.usedOf(n)
	if err != nil {
		return err
	}
	var area []byte
	if c.sl != nil {
		if area, err = c.sl.Slice(n.addr+recHeaderLen, int(used)); err != nil {
			return err
		}
	} else {
		area = make([]byte, used)
		if err := c.mem.Read(n.addr+recHeaderLen, area); err != nil {
			return err
		}
	}
	off := uint64(0)
	for off+recHeaderLen <= used {
		tag := uint16(area[off]) | uint16(area[off+1])<<8
		klen := uint64(tag &^ tombstoneBit)
		if off+recHeaderLen+klen+recValueLen > used {
			return fmt.Errorf("%w: record overruns used area", ErrCorrupt)
		}
		key := area[off+recHeaderLen : off+recHeaderLen+klen]
		val := scm.U64(area[off+recHeaderLen+klen:])
		cont, err := fn(record{off: off, key: key, val: val, dead: tag&tombstoneBit != 0})
		if err != nil || !cont {
			return err
		}
		off += recHeaderLen + klen + recValueLen
	}
	return nil
}

// chain iterates the nodes of key's bucket chain.
func (c *Collection) chain(table uint64, nbuckets uint32, key []byte, fn func(n node) (bool, error)) error {
	n := primaryNode(bucketAddr(table, nbuckets, key))
	for depth := 0; ; depth++ {
		if depth > maxChainDepth {
			return fmt.Errorf("%w: bucket chain too long", ErrCorrupt)
		}
		cont, err := fn(n)
		if err != nil || !cont {
			return err
		}
		next, err := read64(c.mem, c.sl, n.addr+n.chainOff)
		if err != nil {
			return err
		}
		if next == 0 {
			return nil
		}
		n = overflowNode(next)
	}
}

// Lookup finds key, returning its value. Safe for untrusted, lock-protected
// concurrent readers.
func (c *Collection) Lookup(key []byte) (OID, error) {
	table, nb, err := c.table()
	if err != nil {
		return 0, err
	}
	var found OID
	ok := false
	err = c.chain(table, nb, key, func(n node) (bool, error) {
		werr := c.walkRecords(n, func(r record) (bool, error) {
			if !r.dead && bytes.Equal(r.key, key) {
				found = OID(r.val)
				ok = true
				return false, nil
			}
			return true, nil
		})
		return !ok, werr
	})
	if err != nil {
		return 0, err
	}
	if !ok {
		// Bare: a miss is the common answer on every create path, and
		// naming the key here would box it (making every caller's key
		// escape). The layer that reports to a user names the path.
		return 0, ErrNotFound
	}
	return found, nil
}

// Iterate calls fn for every live key/value pair. The key slice is only
// valid during the call.
func (c *Collection) Iterate(fn func(key []byte, val OID) error) error {
	table, nb, err := c.table()
	if err != nil {
		return err
	}
	for b := uint32(0); b < nb; b++ {
		n := primaryNode(table + uint64(b)*bucketSize)
		for depth := 0; ; depth++ {
			if depth > maxChainDepth {
				return fmt.Errorf("%w: bucket chain too long", ErrCorrupt)
			}
			if err := c.walkRecords(n, func(r record) (bool, error) {
				if r.dead {
					return true, nil
				}
				return true, fn(r.key, OID(r.val))
			}); err != nil {
				return err
			}
			next, err := read64(c.mem, c.sl, n.addr+n.chainOff)
			if err != nil {
				return err
			}
			if next == 0 {
				break
			}
			n = overflowNode(next)
		}
	}
	return nil
}

// Insert adds key -> val (trusted side; caller holds the collection write
// lock). Fails with ErrExists when a live record has the same key. Grows
// the table via shadow rehash when the load factor is exceeded.
func (c *Collection) Insert(a Allocator, key []byte, val OID) error {
	return c.insert(a, key, val, true)
}

// InsertNoGrow inserts without ever moving the table (overflow chaining
// only). FlatFS operations covered by fine-grained bucket locks use it,
// since a rehash would invalidate every bucket lock and requires the
// whole-collection write lock (§6.2).
func (c *Collection) InsertNoGrow(a Allocator, key []byte, val OID) error {
	return c.insert(a, key, val, false)
}

func (c *Collection) insert(a Allocator, key []byte, val OID, allowGrow bool) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: key of %d bytes", ErrTooLarge, len(key))
	}
	count, err := c.Count()
	if err != nil {
		return err
	}
	_, nb, err := c.table()
	if err != nil {
		return err
	}
	if allowGrow && count >= nb*entriesPerBucketTarget {
		if err := c.rehash(a, nb*2); err != nil {
			return err
		}
	}
	table, nb, err := c.table()
	if err != nil {
		return err
	}
	need := uint64(recHeaderLen + len(key) + recValueLen)
	var target node
	var targetUsed uint64
	haveTarget := false
	exists := false
	var last node
	err = c.chain(table, nb, key, func(n node) (bool, error) {
		last = n
		used, err := c.usedOf(n)
		if err != nil {
			return false, err
		}
		werr := c.walkRecords(n, func(r record) (bool, error) {
			if !r.dead && bytes.Equal(r.key, key) {
				exists = true
				return false, nil
			}
			return true, nil
		})
		if werr != nil || exists {
			return false, werr
		}
		if !haveTarget && used+need <= n.areaLen {
			target, targetUsed, haveTarget = n, used, true
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if exists {
		return fmt.Errorf("%w: %q", ErrExists, key)
	}
	if !haveTarget {
		// Chain a fresh overflow extent onto the last node: populate it,
		// flush, then publish with a single atomic pointer write.
		ovf, err := a.Alloc(ovfSize)
		if err != nil {
			return err
		}
		if err := scm.Zero(c.mem, ovf, ovfSize); err != nil {
			return err
		}
		if err := c.mem.Flush(ovf, ovfSize); err != nil {
			return err
		}
		c.mem.Fence()
		if err := scm.AtomicFlush64(c.mem, last.addr+last.chainOff, ovf); err != nil {
			return err
		}
		target, targetUsed = overflowNode(ovf), 0
	}
	// Write the record beyond the used mark, persist it, then publish by
	// bumping the used counter (record contents are durable before they
	// become reachable).
	rec := target.addr + recHeaderLen + targetUsed
	if err := c.writeRecord(rec, key, val); err != nil {
		return err
	}
	if err := c.mem.Flush(rec, int(need)); err != nil {
		return err
	}
	c.mem.Fence()
	if err := scm.Write16(c.mem, target.addr, uint16(targetUsed+need)); err != nil {
		return err
	}
	if err := c.mem.Flush(target.addr, 2); err != nil {
		return err
	}
	return c.bumpCounts(int32(1), 0)
}

// Remove tombstones key (trusted side; caller holds the write lock).
// Rehashes away tombstones past the threshold.
func (c *Collection) Remove(a Allocator, key []byte) error {
	return c.remove(a, key, true)
}

// RemoveNoGC removes without ever rehashing the table (bucket-locked
// FlatFS operations; see InsertNoGrow).
func (c *Collection) RemoveNoGC(a Allocator, key []byte) error {
	return c.remove(a, key, false)
}

func (c *Collection) remove(a Allocator, key []byte, allowGC bool) error {
	table, nb, err := c.table()
	if err != nil {
		return err
	}
	removed := false
	err = c.chain(table, nb, key, func(n node) (bool, error) {
		werr := c.walkRecords(n, func(r record) (bool, error) {
			if !r.dead && bytes.Equal(r.key, key) {
				tag := uint16(len(r.key)) | tombstoneBit
				if err := scm.Write16(c.mem, n.addr+recHeaderLen+r.off, tag); err != nil {
					return false, err
				}
				if err := c.mem.Flush(n.addr+recHeaderLen+r.off, 2); err != nil {
					return false, err
				}
				removed = true
				return false, nil
			}
			return true, nil
		})
		return !removed, werr
	})
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err := c.bumpCounts(-1, 1); err != nil {
		return err
	}
	count, err := c.Count()
	if err != nil {
		return err
	}
	tombs, err := c.tombstones()
	if err != nil {
		return err
	}
	if allowGC && tombs > 16 && tombs > count/2 {
		_, nb, err := c.table()
		if err != nil {
			return err
		}
		return c.rehash(a, gcBuckets(count, nb))
	}
	return nil
}

// gcBuckets sizes the table a tombstone GC rebuilds: the fewest buckets,
// never more than the current nb, that leave live entries at half the grow
// threshold's load — so a shrunk table grows again only once its live
// count has doubled.
func gcBuckets(live, nb uint32) uint32 {
	want := uint32(initialBuckets)
	for want < nb && uint64(live)*2 > uint64(want)*entriesPerBucketTarget {
		want *= 2
	}
	return want
}

func (c *Collection) bumpCounts(dCount, dTombs int32) error {
	head := c.oid.Addr()
	count, err := scm.Read32(c.mem, head+offColCount)
	if err != nil {
		return err
	}
	tombs, err := scm.Read32(c.mem, head+offColTombstones)
	if err != nil {
		return err
	}
	if err := scm.Write32(c.mem, head+offColCount, uint32(int32(count)+dCount)); err != nil {
		return err
	}
	if err := scm.Write32(c.mem, head+offColTombstones, uint32(int32(tombs)+dTombs)); err != nil {
		return err
	}
	return c.mem.Flush(head+offColCount, 8)
}

// rehash builds a new table of newNB buckets containing only live entries,
// publishes it with one atomic pointer write, and frees the old table and
// its overflow chain (§5.3.1's shadow update).
func (c *Collection) rehash(a Allocator, newNB uint32) error {
	oldTable, oldNB, err := c.table()
	if err != nil {
		return err
	}
	newTable, err := newTable(c.mem, a, newNB)
	if err != nil {
		return err
	}
	live := uint32(0)
	insert := func(key []byte, val OID) error {
		need := uint64(recHeaderLen + len(key) + recValueLen)
		var target node
		var targetUsed uint64
		have := false
		var last node
		err := c.chain(newTable, newNB, key, func(n node) (bool, error) {
			last = n
			used, err := c.usedOf(n)
			if err != nil {
				return false, err
			}
			if used+need <= n.areaLen {
				target, targetUsed, have = n, used, true
				return false, nil
			}
			return true, nil
		})
		if err != nil {
			return err
		}
		if !have {
			ovf, err := a.Alloc(ovfSize)
			if err != nil {
				return err
			}
			if err := scm.Zero(c.mem, ovf, ovfSize); err != nil {
				return err
			}
			if err := scm.Write64(c.mem, last.addr+last.chainOff, ovf); err != nil {
				return err
			}
			target, targetUsed = overflowNode(ovf), 0
		}
		if err := c.writeRecord(target.addr+recHeaderLen+targetUsed, key, val); err != nil {
			return err
		}
		if err := scm.Write16(c.mem, target.addr, uint16(targetUsed+need)); err != nil {
			return err
		}
		live++
		return nil
	}
	// Copy live entries from the old table.
	if err := c.iterateTable(oldTable, oldNB, func(key []byte, val OID) error {
		return insert(key, val)
	}); err != nil {
		return err
	}
	// Persist the fully built shadow table, then publish.
	if err := c.flushTableDeep(newTable, newNB); err != nil {
		return err
	}
	c.mem.Fence()
	if err := scm.AtomicFlush64(c.mem, c.oid.Addr()+offColTable, tableWord(newTable, newNB)); err != nil {
		return err
	}
	// The table moved: invalidate the cached header.
	c.invalidateTable()
	// Reset counters: all tombstones are gone.
	head := c.oid.Addr()
	if err := scm.Write32(c.mem, head+offColCount, live); err != nil {
		return err
	}
	if err := scm.Write32(c.mem, head+offColTombstones, 0); err != nil {
		return err
	}
	if err := c.mem.Flush(head+offColCount, 8); err != nil {
		return err
	}
	return c.freeTable(a, oldTable, oldNB)
}

// iterateTable walks live records of an arbitrary table.
func (c *Collection) iterateTable(table uint64, nb uint32, fn func(key []byte, val OID) error) error {
	for b := uint32(0); b < nb; b++ {
		n := primaryNode(table + uint64(b)*bucketSize)
		for depth := 0; ; depth++ {
			if depth > maxChainDepth {
				return fmt.Errorf("%w: bucket chain too long", ErrCorrupt)
			}
			if err := c.walkRecords(n, func(r record) (bool, error) {
				if r.dead {
					return true, nil
				}
				return true, fn(r.key, OID(r.val))
			}); err != nil {
				return err
			}
			next, err := read64(c.mem, c.sl, n.addr+n.chainOff)
			if err != nil {
				return err
			}
			if next == 0 {
				break
			}
			n = overflowNode(next)
		}
	}
	return nil
}

// flushTableDeep flushes a table extent and all overflow extents.
func (c *Collection) flushTableDeep(table uint64, nb uint32) error {
	if err := c.mem.Flush(table, int(TableSizeFor(nb))); err != nil {
		return err
	}
	for b := uint32(0); b < nb; b++ {
		n := primaryNode(table + uint64(b)*bucketSize)
		for {
			next, err := scm.Read64(c.mem, n.addr+n.chainOff)
			if err != nil {
				return err
			}
			if next == 0 {
				break
			}
			n = overflowNode(next)
			if err := c.mem.Flush(n.addr, ovfSize); err != nil {
				return err
			}
		}
	}
	return nil
}

// freeTable frees a table extent and its overflow chains. Each chain is
// collected before freeing so no freed extent is read.
func (c *Collection) freeTable(a Allocator, table uint64, nb uint32) error {
	for b := uint32(0); b < nb; b++ {
		var chain []uint64
		n := primaryNode(table + uint64(b)*bucketSize)
		for depth := 0; ; depth++ {
			if depth > maxChainDepth {
				return fmt.Errorf("%w: bucket chain too long", ErrCorrupt)
			}
			next, err := scm.Read64(c.mem, n.addr+n.chainOff)
			if err != nil {
				return err
			}
			if next == 0 {
				break
			}
			chain = append(chain, next)
			n = overflowNode(next)
		}
		for _, addr := range chain {
			if err := a.Free(addr, ovfSize); err != nil {
				return err
			}
		}
	}
	return a.Free(table, TableSizeFor(nb))
}

// Destroy frees the collection's storage (trusted side).
func (c *Collection) Destroy(a Allocator) error {
	table, nb, err := c.table()
	if err != nil {
		return err
	}
	if err := c.freeTable(a, table, nb); err != nil {
		return err
	}
	return a.Free(c.oid.Addr(), colHeadAlloc)
}

// writeRecord stores one record — tag, key, value — at addr, unflushed.
// The key goes straight from the caller's buffer and the scalars by value
// (scm's Storer), so writing a record builds no copy of it on the heap.
func (c *Collection) writeRecord(addr uint64, key []byte, val OID) error {
	if err := scm.Write16(c.mem, addr, uint16(len(key))); err != nil {
		return err
	}
	if err := c.mem.Write(addr+recHeaderLen, key); err != nil {
		return err
	}
	return scm.Write64(c.mem, addr+recHeaderLen+uint64(len(key)), uint64(val))
}
