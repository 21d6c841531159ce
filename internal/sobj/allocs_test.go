package sobj

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: on a slicing space a header is validated in place, and an
// mFile or collection handle the caller declares and opens with Open is not
// a heap object. A collection lookup walks the bucket in place, and its
// miss is the bare ErrNotFound — naming the key would box it. Inserting
// and removing write each record straight from the key, with no copy of
// it, so a round of both — its removes ending in a tombstone-GC rehash
// that copies every live entry into a new table — allocates nothing.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	e := newEnv(t, 8<<20)
	m, err := CreateMFile(e.mem, e.bd, 0644, DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	oid := m.OID()
	col, err := CreateCollection(e.mem, e.bd, 0755)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Insert(e.bd, []byte("present"), oid); err != nil {
		t.Fatal(err)
	}
	// The churned collection keeps live entries beside the ones a round
	// inserts and removes, so the rehash has records to copy.
	churned, err := CreateCollection(e.mem, e.bd, 0755)
	if err != nil {
		t.Fatal(err)
	}
	var keep, churn [40][]byte
	for i := range keep {
		keep[i] = []byte(fmt.Sprintf("keep-%02d", i))
		churn[i] = []byte(fmt.Sprintf("churn-%02d", i))
		if err := churned.Insert(e.bd, keep[i], oid); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(name string, want error) func() error {
		return func() error {
			var c Collection
			if err := c.Open(e.mem, col.OID()); err != nil {
				return err
			}
			if _, err := c.Lookup([]byte(name)); !errors.Is(err, want) {
				return fmt.Errorf("lookup %q: %v, want %v", name, err, want)
			}
			return nil
		}
	}
	for _, row := range []struct {
		name string
		fn   func() error
	}{
		{"ReadHeader", func() error { _, err := ReadHeader(e.mem, oid); return err }},
		{"MFile.Open+Size+SetSize", func() error {
			var f MFile
			if err := f.Open(e.mem, oid); err != nil {
				return err
			}
			if _, err := f.Size(); err != nil {
				return err
			}
			return f.SetSize(4096)
		}},
		{"SetRefcnt", func() error { return SetRefcnt(e.mem, oid, 1) }},
		{"Collection.Open+Lookup hit", lookup("present", nil)},
		{"Collection.Open+Lookup miss", lookup("absent", ErrNotFound)},
		{"Collection.Insert+Remove through a tombstone GC", func() error {
			var c Collection
			if err := c.Open(e.mem, churned.OID()); err != nil {
				return err
			}
			for _, k := range churn {
				if err := c.Insert(e.bd, k, oid); err != nil {
					return err
				}
			}
			for _, k := range churn {
				if err := c.Remove(e.bd, k); err != nil {
					return err
				}
			}
			if tombs, err := c.tombstones(); err != nil || tombs > 16 {
				return fmt.Errorf("%d tombstones after the removes (%v): no GC ran", tombs, err)
			}
			return nil
		}},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := row.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", row.name, got)
		}
	}
}
