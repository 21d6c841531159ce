package sweep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/aerie-fs/aerie/internal/crashsweep"
	"github.com/aerie-fs/aerie/internal/sweep"
)

// unswept is the allow-list of fault points no scenario enumerates, each
// with the reason. It may only shrink: the ledger fails on an entry that
// has since been swept or deleted, and on a new point that is neither swept
// nor argued for here.
var unswept = map[string]string{
	"rpc.tcp.respond": "fires only on the TCP transport; scenarios mount in-process. rpc's TestTCPAtMostOnceAcrossReconnect injects it.",
	"scm.map":         "fires while a volume file is being mapped, before any workload exists; scm's TestVolumeMapFaultPoint and core's TestNewDegradesOnInjectedMapFault inject it.",
}

const maxUnswept = 2

// registeredPoints parses every non-test Go file under internal/ and
// returns the literal of each .Hit("...") call.
func registeredPoints(t *testing.T) map[string]bool {
	points := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if ok && isLit && sel.Sel.Name == "Hit" && lit.Kind == token.STRING {
				if p, err := strconv.Unquote(lit.Value); err == nil {
					points[p] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestFaultPointLedger: every fault point registered anywhere in the tree
// is enumerated by some scenario under some executor — and so swept by that
// scenario's test — or is on the allow-list.
func TestFaultPointLedger(t *testing.T) {
	registered := registeredPoints(t)
	swept := map[string]bool{}
	for _, c := range []struct {
		sc sweep.Scenario
		ex sweep.Executor
	}{
		{crashsweep.MutationMix(1, 24), sweep.Crash{}},        // TestSweepAllPoints
		{crashsweep.Shard2PC(), sweep.Kill{Dir: t.TempDir()}}, // TestShard2PCKill9Sweep
	} {
		points, err := sweep.Enumerate(c.sc, c.ex)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s under %T enumerates %d points", c.sc.Name, c.ex, len(points))
		for _, p := range points {
			swept[p] = true
		}
	}
	var missing []string
	for p := range registered {
		if !swept[p] && unswept[p] == "" {
			missing = append(missing, p)
		}
	}
	sort.Strings(missing)
	for _, p := range missing {
		t.Errorf("fault point %s is registered but no scenario sweeps it", p)
	}
	for p := range unswept {
		if !registered[p] {
			t.Errorf("allow-listed %s is no longer registered: delete the entry", p)
		} else if swept[p] {
			t.Errorf("allow-listed %s is swept now: delete the entry", p)
		}
	}
	if len(unswept) > maxUnswept {
		t.Errorf("the allow-list grew to %d entries (max %d): sweep the new point instead", len(unswept), maxUnswept)
	}
	t.Logf("%d registered points: %d swept, %d allow-listed", len(registered), len(swept), len(unswept))
}
