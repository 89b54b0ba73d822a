package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/gf2"
)

// updateGolden rewrites testdata/catalog.golden from the current
// implementation:
//
//	go test ./internal/catalog -run TestCatalogGolden -update
//
// Only do this deliberately: the catalogue fixes the codes every figure,
// fingerprint and benchmark is built on, so a drift here is a change to
// results, not a refactor.
var updateGolden = flag.Bool("update", false, "rewrite testdata/catalog.golden")

// goldenLine renders one entry: its identity and parameters in clear,
// plus a digest of everything downstream code reads from it (the
// logical operator supports in order and the map's permutations).
func goldenLine(tag string, e Entry) string {
	c := e.Code
	h := sha256.New()
	writeVecs := func(label string, vs []gf2.Vec) {
		fmt.Fprintf(h, "%s %d\n", label, len(vs))
		for _, v := range vs {
			fmt.Fprintln(h, v.Support())
		}
	}
	writeVecs("LX", c.LogicalX)
	writeVecs("LZ", c.LogicalZ)
	fmt.Fprintf(h, "sigma %v\n", e.Map.Sigma)
	fmt.Fprintf(h, "alpha %v\n", e.Map.Alpha)
	return fmt.Sprintf("%s %s %s {%d,%d} group=%s n=%d k=%d dx=%d/%v dz=%d/%v digest=%s",
		tag, e.Family, c.Name, e.Subfamily[0], e.Subfamily[1], e.GroupName,
		c.N, c.K, c.DX, c.DXExact, c.DZ, c.DZExact, hex.EncodeToString(h.Sum(nil))[:24])
}

// TestCatalogGolden pins the standard catalogue and the {5,5} surface
// family (hyper-30's source) byte-for-byte, so a faster construction can
// be shown to build exactly the same codes.
func TestCatalogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	var buf strings.Builder
	for _, e := range Standard() {
		fmt.Fprintln(&buf, goldenLine("std", e))
	}
	for _, e := range SurfaceCodes(5, 5, DefaultOptions()) {
		fmt.Fprintln(&buf, goldenLine("s55", e))
	}
	got := buf.String()

	path := filepath.Join("testdata", "catalog.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("catalogue drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
