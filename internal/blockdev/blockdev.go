// Package blockdev emulates the RAM-disk block device that the paper mounts
// ext3/ext4 on (§7.1): a Linux brd driver modified to perform block writes
// with streaming stores and flush them for persistence. It reuses the SCM
// emulation for its backing store, so the same crash simulation and
// write-latency injection apply — Figure 6 injects its delay here for the
// kernel file systems.
package blockdev

import (
	"errors"
	"fmt"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/scm"
)

// BlockSize is the device's sector/block size.
const BlockSize = 4096

// ErrOutOfRange reports a block number beyond the device.
var ErrOutOfRange = errors.New("blockdev: block out of range")

// Disk is a RAM disk. Concurrent access is the file system's
// responsibility, as with a real block device queue.
type Disk struct {
	mem    *scm.Memory
	blocks uint64
	costs  *costmodel.Costs

	// Stats.
	ReadsN  costmodel.Counter
	WritesN costmodel.Counter
	Flushes costmodel.Counter
}

// New creates a disk with the given number of blocks. costs supplies the
// injected per-block write latency (may be nil). track enables crash
// simulation. The backing store is an SCM arena, mapped outside the Go heap
// until Close.
func New(blocks uint64, costs *costmodel.Costs, track bool) *Disk {
	mem := scm.New(scm.Config{Size: blocks * BlockSize, TrackPersistence: track})
	return &Disk{mem: mem, blocks: blocks, costs: costs}
}

// Blocks returns the device size in blocks.
func (d *Disk) Blocks() uint64 { return d.blocks }

func (d *Disk) check(block uint64) error {
	if block >= d.blocks {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, block, d.blocks)
	}
	return nil
}

// Read copies block into p (len(p) must be BlockSize).
func (d *Disk) Read(block uint64, p []byte) error {
	if err := d.check(block); err != nil {
		return err
	}
	if len(p) != BlockSize {
		return fmt.Errorf("blockdev: short read buffer %d", len(p))
	}
	d.ReadsN.Add(1)
	return d.mem.Read(block*BlockSize, p)
}

// Write stores p into block with streaming stores, charging the injected
// block-write latency. The write is persistent after the next Flush.
func (d *Disk) Write(block uint64, p []byte) error {
	if err := d.check(block); err != nil {
		return err
	}
	if len(p) != BlockSize {
		return fmt.Errorf("blockdev: short write buffer %d", len(p))
	}
	d.WritesN.Add(1)
	if d.costs != nil && d.costs.BlockWrite > 0 {
		costmodel.Spin(d.costs.BlockWrite)
	}
	return d.mem.WriteStream(block*BlockSize, p)
}

// Flush drains the device write buffers (the modified brd's blflush).
func (d *Disk) Flush() {
	d.Flushes.Add(1)
	d.mem.BFlush()
	d.mem.Fence()
}

// Crash simulates power loss (requires track at New).
func (d *Disk) Crash() { d.mem.Crash() }

// PersistAll marks the current contents persistent (post-mkfs baseline).
func (d *Disk) PersistAll() { d.mem.PersistAll() }

// Close releases the backing store; later block accesses fail. Idempotent.
func (d *Disk) Close() error { return d.mem.Close() }
