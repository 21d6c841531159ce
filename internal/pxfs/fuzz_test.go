package pxfs

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/aerie-fs/aerie/internal/sobj"
)

// refSplitPath is the strings.Split normalizer splitPath replaced, kept as
// the differential reference: same components, same abs flag, same error
// class.
func refSplitPath(path string) ([]string, bool, error) {
	if path == "" {
		return nil, false, fmt.Errorf("%w: empty", ErrBadPath)
	}
	abs := strings.HasPrefix(path, "/")
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			return nil, false, fmt.Errorf("%w: %q ('..' unsupported)", ErrBadPath, path)
		default:
			if len(p) > sobj.MaxKeyLen {
				return nil, false, fmt.Errorf("%w: component too long", ErrBadPath)
			}
			out = append(out, p)
		}
	}
	return out, abs, nil
}

// FuzzSplitPath feeds arbitrary strings to the path normalizer that fronts
// every PXFS name lookup and checks it against refSplitPath. Accepted paths
// must produce only clean components (non-empty, no "." or "..", within the
// key-length cap), normalization must be idempotent, and the name-cache key
// of every component prefix — root included — must be "/" joined with the
// components, whether or not it could be sliced out of the path itself.
func FuzzSplitPath(f *testing.F) {
	f.Add("/a/b/c")
	f.Add("a//b/./c/")
	f.Add("/")
	f.Add("../escape")
	f.Add("/a/../b")
	f.Add(strings.Repeat("x", sobj.MaxKeyLen+1))
	f.Add("/mnt/\x00weird\xff/name")
	f.Add("/ab/a")
	f.Add(strings.Repeat("/d", stackParts+3))
	f.Fuzz(func(t *testing.T, path string) {
		var buf [stackParts]string
		parts, abs, err := splitPath(path, buf[:0])
		want, wantAbs, wantErr := refSplitPath(path)
		if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, ErrBadPath)) {
			t.Fatalf("%q: err %v, reference %v", path, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, reference %q", path, err, wantErr)
			}
			return
		}
		if abs != wantAbs || !slices.Equal(parts, want) {
			t.Fatalf("%q: got %q abs=%v, reference %q abs=%v", path, parts, abs, want, wantAbs)
		}
		for _, p := range parts {
			if p == "" || p == "." || p == ".." {
				t.Fatalf("dirty component %q survived in %q", p, path)
			}
			if len(p) > sobj.MaxKeyLen {
				t.Fatalf("over-long component (%d bytes) survived in %q", len(p), path)
			}
			if strings.Contains(p, "/") {
				t.Fatalf("separator survived in component %q", p)
			}
		}
		for k := 0; k <= len(parts); k++ {
			if got, want := cacheKey(path, parts, k), "/"+strings.Join(parts[:k], "/"); got != want {
				t.Fatalf("%q: cache key of %d components %q, want %q", path, k, got, want)
			}
		}
		rejoined := "/" + strings.Join(parts, "/")
		if got := cleanAbs(path); got != rejoined {
			t.Fatalf("cleanAbs(%q) = %q, want %q", path, got, rejoined)
		}
		parts2, abs2, err := splitPath(rejoined, nil)
		if err != nil || !abs2 {
			t.Fatalf("re-split of %q failed: %v abs=%v", rejoined, err, abs2)
		}
		if len(parts2) != len(parts) {
			t.Fatalf("normalization not idempotent for %q: %v vs %v", path, parts, parts2)
		}
		for i := range parts {
			if parts[i] != parts2[i] {
				t.Fatalf("component %d changed on re-split: %q vs %q", i, parts[i], parts2[i])
			}
		}
	})
}
