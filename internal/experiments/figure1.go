package experiments

import (
	"fmt"
	"time"

	"github.com/aerie-fs/aerie/internal/vfs"
)

// Figure1 reproduces the §3 VFS time breakdown: the fraction of each
// operation's kernel time spent in the entry function, file-descriptor
// management, synchronization, in-memory objects, and naming, measured on
// an ext4-style file system over a RAM disk with cold dentry/inode caches.
// The paper uses 1M files in a 3-level hierarchy; the file count scales
// with cfg.Scale.
func Figure1(cfg Config) error {
	cfg.defaults()
	nfiles := int(100000 * cfg.Scale * 10)
	if nfiles < 500 {
		nfiles = 500
	}
	// 3-level hierarchy: top/mid/leaf files.
	width := 1
	for width*width*width < nfiles {
		width++
	}
	tg, err := newKernelTarget("ext4", cfg.Costs, uint64(nfiles)*4+1<<18)
	if err != nil {
		return err
	}
	defer tg.close()
	v := tg.vfs
	path := func(i int) string {
		a := i % width
		b := (i / width) % width
		c := i / (width * width)
		return fmt.Sprintf("/d%02d/d%02d/f%05d", a, b, c)
	}
	// Populate.
	for a := 0; a < width; a++ {
		if err := v.Mkdir(fmt.Sprintf("/d%02d", a), 0755); err != nil {
			return err
		}
		for b := 0; b < width; b++ {
			if err := v.Mkdir(fmt.Sprintf("/d%02d/d%02d", a, b), 0755); err != nil {
				return err
			}
		}
	}
	for i := 0; i < nfiles; i++ {
		fd, err := v.Open(path(i), vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			return err
		}
		if err := v.Close(fd); err != nil {
			return err
		}
	}

	type opCase struct {
		name string
		run  func(i int) error
	}
	sample := nfiles / 2
	if sample > 2000 {
		sample = 2000
	}
	cases := []opCase{
		{"stat", func(i int) error {
			_, err := v.Stat(path(i))
			return err
		}},
		{"open", func(i int) error {
			fd, err := v.Open(path(i), vfs.O_RDONLY, 0)
			if err != nil {
				return err
			}
			return v.Close(fd)
		}},
		{"create", func(i int) error {
			// Spread creates across the hierarchy as the paper's
			// 1M-file tree does.
			p := fmt.Sprintf("/d%02d/d%02d/new%05d", i%width, (i/width)%width, i)
			fd, err := v.Open(p, vfs.O_RDWR|vfs.O_CREATE, 0644)
			if err != nil {
				return err
			}
			return v.Close(fd)
		}},
		{"rename", func(i int) error {
			return v.Rename(path(i), path(i)+".r")
		}},
		{"unlink", func(i int) error {
			return v.Unlink(path(i) + ".r")
		}},
	}

	fmt.Fprintf(cfg.Out, "Figure 1: VFS-layer time breakdown (%%), cold caches, %d files, 3-level hierarchy\n", nfiles)
	fmt.Fprintf(cfg.Out, "(avg µs includes the concrete FS (journal/disk) time; percentages cover the VFS layer only, as the paper's profile does)\n\n")
	shown := []vfs.Category{vfs.CatEntry, vfs.CatFD, vfs.CatSync, vfs.CatMemObj, vfs.CatNaming}
	fmt.Fprintf(cfg.Out, "%-10s%10s", "Op", "avg µs")
	for _, cat := range shown {
		fmt.Fprintf(cfg.Out, "%18s", cat)
	}
	fmt.Fprintln(cfg.Out)
	for _, c := range cases {
		v.DropCaches() // cold in-memory objects, as in the paper
		v.Accounting().Reset()
		start := time.Now()
		for i := 0; i < sample; i++ {
			if err := c.run(i); err != nil {
				return fmt.Errorf("%s %d: %w", c.name, i, err)
			}
		}
		elapsed := time.Since(start)
		totals, ops := v.Accounting().Snapshot()
		var sum time.Duration
		for _, cat := range shown {
			sum += totals[cat]
		}
		fmt.Fprintf(cfg.Out, "%-10s%10.2f", c.name, float64(elapsed.Microseconds())/float64(sample))
		for _, cat := range shown {
			pct := 0.0
			if sum > 0 {
				pct = 100 * float64(totals[cat]) / float64(sum)
			}
			fmt.Fprintf(cfg.Out, "%17.1f%%", pct)
		}
		fmt.Fprintln(cfg.Out)
		_ = ops
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
