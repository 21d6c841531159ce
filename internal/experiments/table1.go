package experiments

import (
	"fmt"
	"math/rand"
	"time"
)

// Table1 reproduces the §7.2.1 microbenchmarks: latency of sequential and
// random 4 KB reads/writes on a large file, and open/create/delete/append
// over 1024 small files, on PXFS vs RamFS vs ext3 vs ext4. Sizes scale with
// cfg.Scale (the paper uses a 1 GB file and 1024 files).
func Table1(cfg Config) error {
	cfg.defaults()
	fileMB := int(1024 * cfg.Scale)
	if fileMB < 4 {
		fileMB = 4
	}
	nSmall := int(1024 * cfg.Scale * 4)
	if nSmall < 64 {
		nSmall = 64
	}
	arena := uint64(fileMB)*(1<<20)*4 + 64<<20
	diskBlocks := arena / 4096

	rows := []string{
		"Sequential read", "Sequential write", "Random read", "Random write",
		"Open", "Create", "Delete", "Append",
	}
	results := map[string]map[string]time.Duration{}
	for _, r := range rows {
		results[r] = map[string]time.Duration{}
	}

	targets, err := fsTargets(cfg, arena, diskBlocks, false)
	if err != nil {
		return err
	}
	defer closeAll(targets)
	var names []string
	for _, tg := range targets {
		names = append(names, tg.name)
		if err := runMicro(tg, fileMB, nSmall, results); err != nil {
			return fmt.Errorf("%s: %w", tg.name, err)
		}
	}

	fmt.Fprintf(cfg.Out, "Table 1: latency of common file system operations (µs)\n")
	fmt.Fprintf(cfg.Out, "(paper: 1GB file / 1024 files; this run: %dMB file / %d files, scale %.2f)\n\n",
		fileMB, nSmall, cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-18s", "Benchmark")
	for _, n := range names {
		fmt.Fprintf(cfg.Out, "%12s", n)
	}
	fmt.Fprintln(cfg.Out)
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s", r)
		for _, n := range names {
			fmt.Fprintf(cfg.Out, "%12.2f", float64(results[r][n].Nanoseconds())/1000)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// runMicro measures all Table 1 rows on one target.
func runMicro(tg *target, fileMB, nSmall int, results map[string]map[string]time.Duration) error {
	m := tg.micro
	if err := m.Mkdir("/micro"); err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	fileSize := int64(fileMB) << 20

	// Build the large file once.
	f, err := m.Create("/micro/big")
	if err != nil {
		return err
	}
	for off := int64(0); off < fileSize; off += 4096 {
		if _, err := f.WriteAt(buf, off); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := m.Sync(); err != nil {
		return err
	}

	nblocks := fileSize / 4096
	measure := func(row string, n int, fn func(i int) error) error {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return fmt.Errorf("%s: %w", row, err)
			}
		}
		results[row][tg.name] = time.Since(start) / time.Duration(n)
		return nil
	}

	// Sequential read / write.
	f, err = m.OpenRW("/micro/big")
	if err != nil {
		return err
	}
	if err := measure("Sequential read", int(nblocks), func(i int) error {
		_, err := f.ReadAt(buf, int64(i)*4096)
		return err
	}); err != nil {
		return err
	}
	if err := measure("Sequential write", int(nblocks), func(i int) error {
		_, err := f.WriteAt(buf, int64(i)*4096)
		return err
	}); err != nil {
		return err
	}
	// Random read / write over the first 10% of the file (the paper uses
	// 100MB of 1GB).
	window := nblocks / 10
	if window < 16 {
		window = 16
	}
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, 4096)
	for i := range offs {
		offs[i] = rng.Int63n(window) * 4096
	}
	if err := measure("Random read", len(offs), func(i int) error {
		_, err := f.ReadAt(buf, offs[i])
		return err
	}); err != nil {
		return err
	}
	if err := measure("Random write", len(offs), func(i int) error {
		_, err := f.WriteAt(buf, offs[i])
		return err
	}); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Small-file namespace operations over nSmall 4KB files.
	name := func(i int) string { return fmt.Sprintf("/micro/s%05d", i) }
	if err := measure("Create", nSmall, func(i int) error {
		g, err := m.Create(name(i))
		if err != nil {
			return err
		}
		if _, err := g.WriteAt(buf, 0); err != nil {
			return err
		}
		return g.Close()
	}); err != nil {
		return err
	}
	if err := m.Sync(); err != nil {
		return err
	}
	if err := measure("Open", nSmall, func(i int) error {
		g, err := m.OpenRO(name(i))
		if err != nil {
			return err
		}
		return g.Close()
	}); err != nil {
		return err
	}
	if err := measure("Append", nSmall, func(i int) error {
		g, err := m.OpenRW(name(i))
		if err != nil {
			return err
		}
		if _, err := g.WriteAt(buf, 4096); err != nil {
			return err
		}
		return g.Close()
	}); err != nil {
		return err
	}
	if err := measure("Delete", nSmall, func(i int) error {
		return m.Delete(name(i))
	}); err != nil {
		return err
	}
	return m.Sync()
}
