// Webcache: the paper's headline optimization result (§7.3.2) as a runnable
// program — the same web-proxy cache workload on the generic POSIX
// interface (PXFS) and on the specialized put/get interface (FlatFS), on
// identical machines. FlatFS wins because a get is one operation (no open
// state, no per-read descriptor bookkeeping), files live in a single
// extent, and the flat namespace skips hierarchical resolution.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	aerie "github.com/aerie-fs/aerie"
)

const (
	objects   = 800
	objSize   = 16 * 1024 // the paper's 16KB mean
	cacheIter = 3000
)

func main() {
	body := make([]byte, objSize)
	rand.New(rand.NewSource(1)).Read(body)

	pxTime := runPXFS(body)
	flatTime := runFlatFS(body)

	fmt.Printf("web-proxy cache, %d objects of %dKB, %d operations:\n",
		objects, objSize/1024, cacheIter)
	fmt.Printf("  PXFS   (open/read/close): %v (%.1f µs/op)\n",
		pxTime.Round(time.Millisecond), float64(pxTime.Microseconds())/cacheIter)
	fmt.Printf("  FlatFS (get/put)        : %v (%.1f µs/op)\n",
		flatTime.Round(time.Millisecond), float64(flatTime.Microseconds())/cacheIter)
	fmt.Printf("  speedup: %.2fx (paper: 45-62%% faster single-threaded, §7.3.2)\n",
		float64(pxTime)/float64(flatTime))
}

func runPXFS(body []byte) time.Duration {
	sys, err := aerie.New(aerie.Options{ArenaSize: 256 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fs, err := sys.NewPXFS(1000, aerie.PXFSOptions{NameCache: true})
	if err != nil {
		log.Fatal(err)
	}
	// Populate the cache directory.
	for i := 0; i < objects; i++ {
		f, err := fs.Create(fmt.Sprintf("/cache-%04d", i), 0644)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.Write(body); err != nil {
			log.Fatal(err)
		}
		_ = f.Close()
	}
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, objSize)
	start := time.Now()
	for i := 0; i < cacheIter; i++ {
		name := fmt.Sprintf("/cache-%04d", rng.Intn(objects))
		if rng.Intn(5) == 0 { // 20% refill
			f, err := fs.Create(name, 0644)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := f.Write(body); err != nil {
				log.Fatal(err)
			}
			_ = f.Close()
		} else { // 80% hit
			f, err := fs.Open(name, aerie.O_RDONLY)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := f.ReadAt(buf, 0); err != nil && err.Error() != "EOF" {
				log.Fatal(err)
			}
			_ = f.Close()
		}
	}
	return time.Since(start)
}

func runFlatFS(body []byte) time.Duration {
	sys, err := aerie.New(aerie.Options{ArenaSize: 256 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fs, err := sys.NewFlatFS(1000, aerie.FlatFSOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := fs.Put(fmt.Sprintf("cache-%04d", i), body); err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, objSize)
	start := time.Now()
	for i := 0; i < cacheIter; i++ {
		name := fmt.Sprintf("cache-%04d", rng.Intn(objects))
		if rng.Intn(5) == 0 {
			if err := fs.Put(name, body); err != nil {
				log.Fatal(err)
			}
		} else {
			// The paper's get copies straight into the application
			// buffer (§6.2).
			if _, err := fs.GetInto(name, buf); err != nil {
				log.Fatal(err)
			}
		}
	}
	return time.Since(start)
}
