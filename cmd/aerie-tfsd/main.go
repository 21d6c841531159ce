// Command aerie-tfsd runs a standalone Aerie machine and serves its trusted
// file-system service (and lock service) over loopback TCP — the paper's
// deployment shape, where the TFS is a user-mode process that clients reach
// via RPC (§5.1).
//
// Note that out-of-process clients would also need to share the SCM arena
// itself; in this reproduction the arena lives in the server process, so
// aerie-tfsd is primarily a demonstration of the RPC surface and a target
// for protocol-level tooling.
//
// -shards N partitions the trusted service N ways on new volumes (existing
// volumes keep the count recorded in their partition table); the SIGUSR1
// stats dump then includes a per-shard accounting table alongside the
// per-shard tfs.shard.<i>.* counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/tfs"
)

// tenantFlags collects repeatable -tenant id:weight[:quota-mb] policy flags
// into the boot-time tenant map.
type tenantFlags map[uint32]tfs.TenantConfig

func (t tenantFlags) String() string { return fmt.Sprintf("%d tenant(s)", len(t)) }

func (t tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("want id:weight[:quota-mb], got %q", v)
	}
	var id, weight uint32
	if _, err := fmt.Sscanf(parts[0], "%d", &id); err != nil {
		return fmt.Errorf("tenant id %q: %v", parts[0], err)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &weight); err != nil {
		return fmt.Errorf("weight %q: %v", parts[1], err)
	}
	cfg := tfs.TenantConfig{Weight: weight}
	if len(parts) == 3 {
		var mb uint64
		if _, err := fmt.Sscanf(parts[2], "%d", &mb); err != nil {
			return fmt.Errorf("quota-mb %q: %v", parts[2], err)
		}
		cfg.QuotaBytes = mb << 20
	}
	t[id] = cfg
	return nil
}

func main() {
	tenants := tenantFlags{}
	var (
		addr   = flag.String("listen", "127.0.0.1:7368", "TCP listen address")
		arena  = flag.Uint64("arena-mb", 256, "SCM arena size in MiB (new volumes)")
		volume = flag.String("volume", "", "mmap-backed volume file; created if missing, recovered if present")
		shards = flag.Int("shards", 1, "trusted-service shards for new volumes (existing volumes keep their count)")
	)
	flag.Var(tenants, "tenant", "tenant policy id:weight[:quota-mb] (repeatable); weights drive the fair scheduler, quotas bound space")
	flag.Parse()

	sink := obs.New()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "aerie-tfsd: "+format+"\n", args...)
	}
	var sys *core.System
	var err error
	if *volume != "" {
		if _, statErr := os.Stat(*volume); statErr == nil {
			// Existing volume: open it and recover. Never degrades.
			sys, err = core.Open(*volume, core.Options{
				Costs:   costmodel.DefaultCosts(),
				Obs:     sink,
				Logf:    logf,
				Tenants: tenants,
			})
			if err == nil {
				if sys.Vol.WasDirty() {
					fmt.Printf("aerie-tfsd: %s was not cleanly closed; journal replayed (generation %d)\n",
						*volume, sys.Vol.Generation())
				} else {
					fmt.Printf("aerie-tfsd: %s opened clean (generation %d)\n", *volume, sys.Vol.Generation())
				}
				// Shard count lives in the partition table; the flag only
				// sizes new volumes.
				if got := sys.Set.Shards(); *shards != 1 && got != *shards {
					fmt.Printf("aerie-tfsd: volume has %d shard(s); ignoring -shards %d\n", got, *shards)
				}
			}
		} else {
			sys, err = core.New(core.Options{
				ArenaSize:  *arena << 20,
				VolumePath: *volume,
				Shards:     *shards,
				Costs:      costmodel.DefaultCosts(),
				Obs:        sink,
				Logf:       logf,
				Tenants:    tenants,
			})
			if err == nil {
				if derr := sys.Degraded(); derr != nil {
					fmt.Fprintf(os.Stderr, "aerie-tfsd: WARNING: running volatile, data will not survive exit: %v\n", derr)
				} else {
					fmt.Printf("aerie-tfsd: created volume %s\n", *volume)
				}
			}
		}
	} else {
		sys, err = core.New(core.Options{
			ArenaSize: *arena << 20,
			Shards:    *shards,
			Costs:     costmodel.DefaultCosts(),
			Obs:       sink,
			Logf:      logf,
			Tenants:   tenants,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "boot: %v\n", err)
		os.Exit(1)
	}
	ln, err := sys.ListenTCP(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("aerie-tfsd: %d MiB volume, %d shard(s), root %v, serving on %s\n",
		*arena, sys.Set.Shards(), sys.Set.Shard(0).Root(), ln.Addr())
	st, err := sys.Set.Statfs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "statfs: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("free space: %d bytes\n", st.FreeBytes)
	fmt.Println("SIGUSR1 dumps per-layer stats; SIGINT exits (with a final dump)")

	dump := func() {
		_ = sink.Snapshot().WriteText(os.Stdout)
		dumpShards(sys)
		dumpTenants(sys)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGUSR1)
	for s := range sig {
		if s == syscall.SIGUSR1 {
			fmt.Println("---- stats ----")
			dump()
			continue
		}
		break
	}
	fmt.Println("\nshutting down; final stats:")
	dump()
	_ = ln.Close()
	// Clean close: msync everything and clear the volume's dirty flag, so
	// the next -volume start skips recovery. A kill -9 lands here never —
	// which is the point: the dirty flag stays set and Open recovers.
	if err := sys.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "aerie-tfsd: close: %v\n", err)
		os.Exit(1)
	}
}

// dumpShards prints one accounting row per trusted-service shard: its
// partition's share of the heap, what it has applied, and how many of the
// namespace's objects it owns. On a 1-shard volume the table is a single
// row identical to the aggregate, so it is skipped.
func dumpShards(sys *core.System) {
	if sys.Set.Shards() <= 1 {
		return
	}
	rep, err := sys.Set.Statfs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aerie-tfsd: shard statfs: %v\n", err)
		return
	}
	fmt.Println("---- shards ----")
	fmt.Printf("%-6s %12s %12s %12s %10s %8s\n", "shard", "total", "free", "reserved", "batches", "objects")
	for i, s := range rep.Shards {
		fmt.Printf("%-6d %12d %12d %12d %10d %8d\n",
			i, s.TotalBytes, s.FreeBytes, s.ReservedBytes, s.BatchesApplied, s.Objects)
	}
}

// dumpTenants prints one accounting row per (tenant, shard): the policy
// (weight, quota) and the live charge against it, plus the shed and
// quota-reject counters the isolation machinery maintains. Skipped when no
// tenant has declared policy or touched the volume.
func dumpTenants(sys *core.System) {
	rows := sys.Set.TenantStat()
	if len(rows) == 0 {
		return
	}
	fmt.Println("---- tenants ----")
	fmt.Printf("%-7s %-6s %-7s %12s %12s %12s %8s %8s\n",
		"tenant", "shard", "weight", "quota", "used", "reserved", "sheds", "rejects")
	for _, r := range rows {
		quota := "-"
		if r.QuotaBytes > 0 {
			quota = fmt.Sprintf("%d", r.QuotaBytes)
		}
		fmt.Printf("%-7d %-6d %-7d %12s %12d %12d %8d %8d\n",
			r.Tenant, r.Shard, r.Weight, quota, r.UsedBytes, r.ReservedBytes, r.Sheds, r.QuotaRejects)
	}
}
