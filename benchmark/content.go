package main

import (
	"bytes"
	"math/rand"
)

// content derives every byte the benchmark writes from (seed, name,
// version): a value is a window into one shared pseudo-random block, at an
// offset hashed from the three. Writes pass the window straight to the file
// system (no per-op generation cost) and every read is checked with one
// bytes.Equal against the window the model expects, so a stale or torn
// version lands on a different offset and mismatches.
type content struct {
	seed uint64
	base []byte
}

const (
	contentBlock = 4 << 20  // offsets are drawn from this many bytes
	contentMax   = 64 << 10 // largest single value
)

func newContent(seed int64) *content {
	c := &content{seed: uint64(seed), base: make([]byte, contentBlock+contentMax)}
	// math/rand's generator is fixed for a given seed (Go 1 compatibility),
	// so the block is the same on every run of the same seed.
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(c.base)
	return c
}

// mix is splitmix64's finalizer: a cheap, well-spread hash of one word.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *content) hash(name uint64, version uint32) uint64 {
	return mix(mix(c.seed^name) + uint64(version))
}

// size picks the value's length in [lo, hi], a function of (name, version).
func (c *content) size(name uint64, version uint32, lo, hi int) int {
	return lo + int(c.hash(name, version)>>33)%(hi-lo+1)
}

// bytes returns the n bytes stored under (name, version). The slice aliases
// the shared block and must not be written through.
func (c *content) bytes(name uint64, version uint32, n int) []byte {
	off := c.hash(name, version) % contentBlock
	return c.base[off : off+uint64(n) : off+uint64(n)]
}

// check reports whether got is exactly the value of (name, version).
func (c *content) check(got []byte, name uint64, version uint32) bool {
	return bytes.Equal(got, c.bytes(name, version, len(got)))
}
