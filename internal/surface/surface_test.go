// Package surface_test pins the exported surface of the trusted base and
// the client library: every exported identifier there is referenced from
// outside its own package and tests, or is on a checked-in allow-list with
// the reason it stays exported.
package surface_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "github.com/aerie-fs/aerie"

// audited are the packages whose exported surface the ledger pins.
var audited = []string{"tfs", "scmmgr", "journal", "alloc", "fsproto", "lockservice", "libfs", "scm", "sobj", "stage"}

// unreferenced is the allow-list: exported identifiers of the audited
// packages that nothing outside their own package and tests references,
// each with the reason it stays exported. It may only shrink: the ledger
// fails on an entry that is referenced or gone, and on a new unreferenced
// identifier that is not argued for here.
var unreferenced = map[string]string{
	"alloc.Buddy.FragStats":                "fragmentation snapshot; alloc's TestFragStats pins it, and it has had no runtime reader since the aging sweep was folded into internal/sweep",
	"alloc.FragStats":                      "result type of Buddy.FragStats",
	"alloc.FragStats.Fragments":            "field of the FragStats snapshot",
	"alloc.FragStats.FreeBytes":            "field of the FragStats snapshot",
	"alloc.FragStats.Index":                "field of the FragStats snapshot",
	"alloc.FragStats.LargestFree":          "field of the FragStats snapshot",
	"alloc.FragStats.PerOrder":             "field of the FragStats snapshot",
	"alloc.Reservation.Alloc":              "implements sobj.Allocator: apply draws on a reservation through that interface",
	"alloc.Reservation.Free":               "implements sobj.Allocator: apply draws on a reservation through that interface",
	"fsproto.CodeBatchTooLarge":            "wire error code, registered with rpc beside the codes other packages name",
	"fsproto.CodeWindowStale":              "wire error code, registered with rpc beside the codes other packages name",
	"fsproto.CodeWrongShard":               "wire error code, registered with rpc beside the codes other packages name",
	"fsproto.SeqHeader.Frag":               "field of the nested-header wire codec benchmark/ decodes frames with",
	"fsproto.SeqHeader.Opener":             "field of the nested-header wire codec benchmark/ decodes frames with",
	"fsproto.SeqHeaderLen":                 "length of the nested-header wire codec benchmark/ decodes frames with",
	"fsproto.ShardHeaderLen":               "length of the nested-header wire codec benchmark/ decodes frames with",
	"fsproto.TenantHeader.Tenant":          "field of the nested-header wire codec benchmark/ decodes frames with",
	"fsproto.TenantHeaderLen":              "length of the nested-header wire codec benchmark/ decodes frames with",
	"fsproto.WrongShardError.Error":        "implements error",
	"fsproto.WrongShardError.RetryAfterMs": "implements rpc.RetryAfterHinter: carries the owning shard and epoch across the wire",
	"fsproto.WrongShardError.Unwrap":       "lets callers match ErrWrongShard with errors.Is",
	"journal.ErrBadMagic":                  "typed error, matched with errors.Is in journal's tests",
	"journal.ErrCorrupt":                   "typed error, matched with errors.Is in journal's tests",
	"journal.ErrTooBig":                    "typed error, matched with errors.Is in journal's tests",
	"libfs.Session.Flushes":                "session counter libfs's tests assert on",
	"libfs.Session.LogOps":                 "the indivisible multi-op staging call for interface layers; only libfs's own FileTruncate uses it today",
	"libfs.Session.PoolRefills":            "session counter libfs's tests assert on",
	"lockservice.Class.String":             "implements fmt.Stringer for lock-mode diagnostics",
	"lockservice.Config.Revoke":            "in-process revocation hook lockservice's tests drive the service through; Serve installs the RPC callback",
	"lockservice.ErrNotHeld":               "typed error, matched with errors.Is in lockservice's tests",
	"lockservice.ErrShutdown":              "typed error, matched with errors.Is in lockservice's tests",
	"lockservice.ErrTimeout":               "typed error, matched with errors.Is in lockservice's tests",
	"lockservice.MethodAcquire":            "RPC method ID of the lock protocol, listed beside CallbackRevoke",
	"lockservice.MethodRelease":            "RPC method ID of the lock protocol, listed beside CallbackRevoke",
	"lockservice.MethodRenew":              "RPC method ID of the lock protocol, listed beside CallbackRevoke",
	"lockservice.RevokeFn":                 "type of Config.Revoke",
	"scm.ErrReadOnly":                      "typed error: a store through a read-only volume mapping; scm's tests match it with errors.Is",
	"scm.Stats":                            "result type of Memory.Stats; scmmgr's tests read its Writes and BytesWritten without naming it",
	"scm.Stats.BytesRead":                  "access counter beside the Writes and BytesWritten other packages read; scm's tests assert on it",
	"scm.Stats.Fences":                     "access counter beside the Writes and BytesWritten other packages read; scm's tests assert on it",
	"scm.Stats.LinesFlushed":               "access counter beside the Writes and BytesWritten other packages read; scm's tests assert on it",
	"scm.Stats.Reads":                      "access counter beside the Writes and BytesWritten other packages read; scm's tests assert on it",
	"scm.Volume.ReadOnly":                  "reports the read-only client mapping (VolumeOptions.ReadOnly); scm's tests assert on it",
	"scm.VolumeOptions.ReadOnly":           "the multi-process read-only client mapping, kept for read-only clients of a shared volume; scm's tests open volumes with it",
	"scmmgr.ErrBadMagic":                   "typed error, matched with errors.Is in scmmgr's tests",
	"scmmgr.ErrBadPartition":               "typed error: a corrupt partition table or impossible geometry at format or attach",
	"scmmgr.ErrNoPartition":                "typed error, matched with errors.Is in scmmgr's tests",
	"scmmgr.ErrNotOwner":                   "typed error, matched with errors.Is in scmmgr's tests",
	"scmmgr.ErrSpace":                      "typed error: CreatePartition finds no room in the arena or the partition table",
	"scmmgr.Manager.Faults":                "page-fault counter beside Shootdowns, which the experiments read; scmmgr's tests assert on it",
	"scmmgr.PartitionInfo":                 "result type of Manager.Partition and Partitions; callers read its fields without naming it",
	"sobj.ErrBadOID":                       "typed error, wrapped into MakeOID's rejection of a misaligned address or unknown type",
	"sobj.ErrBadObject":                    "typed error, wrapped into the rejection of an OID whose header is not the object it claims; sobj's tests match it",
	"sobj.ErrNotAllocated":                 "typed error, wrapped into the rejection of a write to an mFile hole; sobj's tests match it",
	"sobj.ErrTooLarge":                     "typed error, wrapped into the rejection of an over-long key or block index; sobj's tests match it",
	"sobj.Header.Type":                     "field of the decoded object header; the object constructors stamp it",
	"sobj.HeaderSize":                      "size of the common object header every object layout starts with",
	"sobj.OID.String":                      "implements fmt.Stringer: OIDs print in wrapped sobj and tfs errors",
	"sobj.Type":                            "type of OID.Type and of the TypeCollection and TypeMFile constants callers compare against",
	"sobj.Type.String":                     "implements fmt.Stringer: OID.String prints the type",
	"sobj.TypeNone":                        "the zero object type, listed beside TypeCollection and TypeMFile",
	"tfs.Config.MaxClientInflight":         "per-client admission depth: production keeps the default 4, admission_test sets 2 to exercise shedding",
	"tfs.ErrCycle":                         "typed error, wrapped into the rejection a client sees for a cyclic rename",
	"tfs.ErrNotPrealloc":                   "typed error, wrapped into the rejection a client sees for a forged extent",
	"tfs.FsckReport":                       "result type of ShardSet.Fsck; callers read its fields without naming it",
	"tfs.FsckReport.AllocatedBlocks":       "field of the fsck report, printed by String",
	"tfs.FsckReport.Objects":               "field of the fsck report, printed by String",
	"tfs.FsckReport.ReachableBlocks":       "field of the fsck report, printed by String",
	"tfs.FsckReport.String":                "implements fmt.Stringer: cmd/aerie-fsck prints the report",
	"tfs.Service":                          "returned by ShardSet.Shard; callers use a shard without naming its type",
}

const maxUnreferenced = 70

// pkg is the part of `go list -json` the ledger reads.
type pkg struct {
	ImportPath, Dir, Export, ForTest   string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// listPackages runs `go list` over the module once: export data for every
// dependency, tests' included, plus each module package's source files.
// The recompiled test variants ("p [p.test]") and test mains are dropped.
func listPackages(t *testing.T) []pkg {
	cmd := exec.Command("go", "list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,ForTest,Standard,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	cmd.Dir = filepath.Join("..", "..")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// exported lists an audited package's exported identifiers, keyed
// "pkg.Name", "pkg.Type.Method" and "pkg.Type.Field".
func exported(p *types.Package) map[types.Object]string {
	ids := map[types.Object]string{}
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		key := p.Name() + "." + name
		ids[obj] = key
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		member := func(obj types.Object) {
			if obj.Exported() {
				ids[obj] = key + "." + obj.Name()
			}
		}
		for i := 0; i < named.NumMethods(); i++ {
			member(named.Method(i))
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				member(u.Field(i))
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				member(u.ExplicitMethod(i))
			}
		}
	}
	return ids
}

// TestExportedSurface type-checks every package of the module, its tests
// included — cmd/, examples/ and the benchmark count as callers — against
// the compiler's export data, and collects which exported identifiers of
// the audited packages each one uses. An identifier used only by its own
// package and that package's tests is unreferenced.
func TestExportedSurface(t *testing.T) {
	pkgs := listPackages(t)
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	ids := map[types.Object]string{}
	owner := map[types.Object]string{} // identifier -> its package's path
	for _, name := range audited {
		path := module + "/internal/" + name
		p, err := imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for obj, key := range exported(p) {
			ids[obj], owner[obj] = key, path
		}
	}

	used := map[types.Object]bool{}
	check := func(path, dir string, files []string) {
		var parsed []*ast.File
		for _, f := range files {
			file, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, file)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		// A package checked from source beside export data of packages that
		// import it sees two copies of its own types; the mismatches that
		// causes concern only its own identifiers, which do not count, so
		// errors are ignored.
		conf := types.Config{Importer: imp, Error: func(error) {}}
		conf.Check(path, fset, parsed, info)
		for _, obj := range info.Uses {
			switch o := obj.(type) { // an instantiated generic member counts as its declaration
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if ids[obj] != "" && owner[obj] != path {
				used[obj] = true
			}
		}
	}
	for _, p := range pkgs {
		if !p.Standard {
			check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...))
			check(p.ImportPath, p.Dir, p.XTestGoFiles)
		}
	}

	// next is the allow-list as it should read.
	next := map[string]string{}
	for key, reason := range unreferenced {
		next[key] = reason
	}
	var problems []string
	found := map[string]bool{}
	for obj, key := range ids {
		found[key] = true
		switch {
		case used[obj] && unreferenced[key] != "":
			problems = append(problems, key+" is allow-listed but referenced now")
			delete(next, key)
		case !used[obj] && unreferenced[key] == "":
			problems = append(problems, key+" is exported but nothing outside its package references it: unexport or delete it, or argue for it")
			next[key] = "TODO: why this stays exported"
		}
	}
	for key := range unreferenced {
		if !found[key] {
			problems = append(problems, key+" is allow-listed but gone")
			delete(next, key)
		}
	}
	if len(unreferenced) > maxUnreferenced {
		problems = append(problems, fmt.Sprintf("the allow-list grew to %d entries (max %d)", len(unreferenced), maxUnreferenced))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Errorf("%s\n\nTo regenerate the allow-list, replace unreferenced and maxUnreferenced with the "+
			"following, then give each TODO a one-line reason — or better, unexport it: the list is meant to shrink:\n\n%s",
			strings.Join(problems, "\n"), render(next))
	}
	t.Logf("%d exported identifiers in %d audited packages: %d referenced, %d allow-listed",
		len(ids), len(audited), len(used), len(unreferenced))
}

// render prints an allow-list as Go source.
func render(list map[string]string) string {
	keys := make([]string, 0, len(list))
	for key := range list {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("var unreferenced = map[string]string{\n")
	for _, key := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", key, list[key])
	}
	fmt.Fprintf(&b, "}\n\nconst maxUnreferenced = %d\n", len(keys))
	return b.String()
}
