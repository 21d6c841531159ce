// Command aerie-shell is an interactive shell over a fresh Aerie machine,
// exposing both file-system interfaces on the same volume: POSIX-style
// commands (ls, cat, write, mkdir, rm, mv, stat, chmod) go through PXFS,
// and key-value commands (put, get, erase, keys) go through FlatFS —
// demonstrating §6.2's one-layout-two-interfaces design interactively.
// With -shards N the trusted service is partitioned N ways; df then adds a
// per-shard accounting row and stats carries tfs.shard.<i>.* counters.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	aerie "github.com/aerie-fs/aerie"
)

func main() {
	shards := flag.Int("shards", 1, "trusted-service shards (df and stats then show per-shard rows)")
	tenant := flag.Uint("tenant", 0, "mount the session as this tenant; its writes charge the tenant's quota")
	flag.Parse()
	sink := aerie.NewObs()
	sys, err := aerie.New(aerie.Options{ArenaSize: 256 << 20, Shards: *shards, Obs: sink})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sess, err := sys.NewSession(aerie.SessionConfig{UID: 1000, Tenant: uint32(*tenant)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	px := aerie.PXFSOn(sess, aerie.PXFSOptions{NameCache: true})
	flat := aerie.FlatFSOn(sess, aerie.FlatFSOptions{})

	fmt.Println("aerie-shell — 'help' for commands, 'quit' to exit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("aerie> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		if cmd == "quit" || cmd == "exit" {
			break
		}
		if err := dispatch(px, flat, sess, sink, cmd, args); err != nil {
			fmt.Println("error:", err)
		}
	}
	_ = sess.Close()
}

func dispatch(px *aerie.PXFS, flat *aerie.FlatFS, sess *aerie.Session, sink *aerie.ObsSink, cmd string, args []string) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s needs %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "help":
		fmt.Print(`POSIX (PXFS):  ls [dir] | cat <file> | write <file> <text...> | append <file> <text...>
               mkdir <dir> | rm <file> | rmdir <dir> | mv <src> <dst> | stat <path> | chmod <octal> <path>
Key/value (FlatFS): put <key> <text...> | get <key> | erase <key> | keys
Tenancy:       tenant set <id> <weight> [quota-mb] | tenant ls
Other:         df | sync | stats [reset] | help | quit
`)
		return nil
	case "ls":
		dir := "/"
		if len(args) > 0 {
			dir = args[0]
		}
		ents, err := px.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %s\n", kind, e.Name)
		}
		return nil
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		f, err := px.Open(args[0], aerie.O_RDONLY)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, 4096)
		for {
			n, err := f.Read(buf)
			os.Stdout.Write(buf[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		fmt.Println()
		return nil
	case "write", "append":
		if err := need(2); err != nil {
			return err
		}
		flags := aerie.O_RDWR | aerie.O_CREATE | aerie.O_TRUNC
		if cmd == "append" {
			flags = aerie.O_RDWR | aerie.O_CREATE | aerie.O_APPEND
		}
		f, err := px.OpenFile(args[0], flags, 0644)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.Write([]byte(strings.Join(args[1:], " ") + "\n"))
		return err
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return px.Mkdir(args[0], 0755)
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return px.Unlink(args[0])
	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		return px.Rmdir(args[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return px.Rename(args[0], args[1])
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		fi, err := px.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: size=%d mode=%o dir=%v links=%d oid=%v\n",
			fi.Name, fi.Size, fi.Mode, fi.IsDir, fi.Links, fi.OID)
		return nil
	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		var mode uint32
		if _, err := fmt.Sscanf(args[0], "%o", &mode); err != nil {
			return err
		}
		return px.Chmod(args[1], mode, false)
	case "put":
		if err := need(2); err != nil {
			return err
		}
		return flat.Put(args[0], []byte(strings.Join(args[1:], " ")))
	case "get":
		if err := need(1); err != nil {
			return err
		}
		v, err := flat.Get(args[0])
		if err != nil {
			return err
		}
		fmt.Println(string(v))
		return nil
	case "erase":
		if err := need(1); err != nil {
			return err
		}
		return flat.Erase(args[0])
	case "keys":
		keys, err := flat.Keys()
		if err != nil {
			return err
		}
		for _, k := range keys {
			fmt.Println(k)
		}
		return nil
	case "df":
		st, err := px.Statfs()
		if err != nil {
			return err
		}
		used := st.TotalBytes - st.FreeBytes - st.ReservedBytes
		fmt.Printf("total %d  used %d  free %d  reserved %d  objects %d  batches %d\n",
			st.TotalBytes, used, st.FreeBytes, st.ReservedBytes, st.Objects, st.BatchesApplied)
		// With several shards the aggregate above hides placement; one row
		// per shard shows which partitions the namespace actually landed in.
		// A lone shard's row would repeat the aggregate.
		if len(st.Shards) > 1 {
			for i, sh := range st.Shards {
				shUsed := sh.TotalBytes - sh.FreeBytes - sh.ReservedBytes
				fmt.Printf("shard %d: total %d  used %d  free %d  reserved %d  objects %d  batches %d\n",
					i, sh.TotalBytes, shUsed, sh.FreeBytes, sh.ReservedBytes, sh.Objects, sh.BatchesApplied)
			}
		}
		// Per-tenant df: any tenant with policy or live usage gets its
		// charge-against-quota rows alongside the volume's totals.
		rows, err := sess.TenantStat()
		if err != nil {
			return err
		}
		if len(rows) > 0 {
			printTenantRows(rows)
		}
		return nil
	case "tenant":
		if len(args) == 0 {
			return fmt.Errorf("tenant needs a subcommand: set <id> <weight> [quota-mb] | ls")
		}
		switch args[0] {
		case "set":
			if len(args) < 3 {
				return fmt.Errorf("tenant set <id> <weight> [quota-mb]")
			}
			var id, weight uint32
			if _, err := fmt.Sscanf(args[1], "%d", &id); err != nil {
				return fmt.Errorf("tenant id %q: %v", args[1], err)
			}
			if _, err := fmt.Sscanf(args[2], "%d", &weight); err != nil {
				return fmt.Errorf("weight %q: %v", args[2], err)
			}
			var quota uint64
			if len(args) > 3 {
				if _, err := fmt.Sscanf(args[3], "%d", &quota); err != nil {
					return fmt.Errorf("quota-mb %q: %v", args[3], err)
				}
				quota <<= 20
			}
			return sess.TenantCtl(id, weight, quota)
		case "ls":
			rows, err := sess.TenantStat()
			if err != nil {
				return err
			}
			if len(rows) == 0 {
				fmt.Println("no tenants configured or active")
				return nil
			}
			printTenantRows(rows)
			return nil
		}
		return fmt.Errorf("unknown tenant subcommand %q", args[0])
	case "sync":
		return px.Sync()
	case "stats":
		if len(args) > 0 && args[0] == "reset" {
			sink.Reset()
			fmt.Println("stats reset")
			return nil
		}
		return sink.Snapshot().WriteText(os.Stdout)
	}
	return fmt.Errorf("unknown command %q (try help)", cmd)
}

// printTenantRows renders per-tenant, per-shard accounting: the policy
// (weight, quota) and the live charge against it (used, reserved), plus the
// isolation counters that explain slow or rejected batches.
func printTenantRows(rows []aerie.TenantUsage) {
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
