// Command aerie-fsck checks an Aerie volume. With -volume it opens an
// mmap-backed volume file offline — replaying its journal if the previous
// writer died — and runs the mark-and-sweep check against the real on-disk
// state, repairing leaked storage when asked. Without -volume it runs the
// original demonstration: build an in-memory volume, exercise it (creates,
// deletes, a client that dies with staged state), simulate a power failure,
// recover, and check.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

func main() {
	repair := flag.Bool("repair", true, "free leaked blocks")
	volume := flag.String("volume", "", "check this volume file offline instead of running the demo")
	flag.Parse()

	if *volume != "" {
		os.Exit(checkVolume(*volume, *repair))
	}

	sys, err := core.New(core.Options{ArenaSize: 64 << 20, TrackPersistence: true})
	if err != nil {
		fatal(err)
	}
	// Healthy activity.
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		fatal(err)
	}
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	for i := 0; i < 50; i++ {
		f, err := fs.Create(fmt.Sprintf("/file-%02d", i), 0644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.Write(make([]byte, 8192)); err != nil {
			fatal(err)
		}
		_ = f.Close()
	}
	if err := fs.Sync(); err != nil {
		fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := fs.Unlink(fmt.Sprintf("/file-%02d", i)); err != nil {
			fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		fatal(err)
	}
	// A client that dies with pre-allocated extents outstanding.
	dead, err := sys.NewSession(libfs.Config{UID: 1001})
	if err != nil {
		fatal(err)
	}
	if _, err := dead.AllocStaged(0, 4096); err != nil {
		fatal(err)
	}
	dead.Abandon()

	fmt.Println("simulating power failure...")
	if err := sys.CrashAndRecover(); err != nil {
		fatal(err)
	}
	rep, err := sys.Set.Fsck(*repair)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	if rep.LeakedBlocks == rep.RepairedBlocks {
		fmt.Println("volume clean")
	} else {
		fmt.Println("leaks remain (run with -repair)")
		os.Exit(1)
	}
}

// checkVolume opens path offline, reports how the last writer left it,
// checks it, and closes it cleanly (clearing the dirty flag) on success.
// Exit status: 0 clean, 1 unusable or leaks remain.
func checkVolume(path string, repair bool) int {
	sys, err := core.Open(path, core.Options{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "aerie-fsck: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aerie-fsck: %s: %v\n", path, err)
		return 1
	}
	if sys.Vol.WasDirty() {
		fmt.Printf("%s: dirty (previous writer died); journal replayed, generation %d\n",
			path, sys.Vol.Generation())
	} else {
		fmt.Printf("%s: cleanly closed, generation %d\n", path, sys.Vol.Generation())
	}
	rep, err := sys.Set.Fsck(repair)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aerie-fsck: %v\n", err)
		return 1
	}
	fmt.Println(rep)
	clean := rep.LeakedBlocks == rep.RepairedBlocks && rep.LostBlocks == 0
	if err := sys.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "aerie-fsck: close: %v\n", err)
		return 1
	}
	if !clean {
		fmt.Println("volume NOT clean (leaks remain: run with -repair; lost blocks need manual attention)")
		return 1
	}
	fmt.Println("volume clean")
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aerie-fsck:", err)
	os.Exit(1)
}
