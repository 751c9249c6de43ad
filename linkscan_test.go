package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowed lists the production functions that no binary links, each
// with the reason it stays. Keys are symbols relative to repro/internal/.
var linkAllowed = map[string]string{
	// Test oracles on production types.
	"sim/cache.(*Cache).Blocks":                  "test oracle: cache contents",
	"sim/cache.(*Cache).Contains":                "test oracle: cache contents",
	"sim/cache.(*Cache).Sets":                    "test oracle: cache geometry",
	"sim/cache.(*Cache).Ways":                    "test oracle: cache geometry",
	"sim/coherence.(*Directory).CheckInvariants": "test oracle: MESI invariants",
	"sim/coherence.(*Directory).StateOf":         "test oracle: directory state",
	"sim/coherence.(*Directory).TrackedBlocks":   "test oracle: directory state",
	"sim/coherence.New":                          "test oracle: the MESI form of NewWithProtocol",
	"sim/cpu.(*TLB).Resident":                    "test oracle: TLB contents",
	"sim/noc.(*Crossbar).InPorts":                "test oracle: crossbar geometry",
	"sim/noc.(*Crossbar).OutPorts":               "test oracle: crossbar geometry",
	"stl.(*Trace).Has":                           "test oracle: trace contents",
	"stl.(*Trace).Names":                         "test oracle: trace contents",
	"stl.(*Trace).Step":                          "test oracle: trace contents",
	"stats.Interval.IsValid":                     "test oracle: interval bounds",
	// Planned uses (ROADMAP items 3 and 6).
	"core.WidthAtSamples":        "item 3's two-stage plan sizes n with it",
	"obs.(*Span).Annotate":       "item 6's correlated spans",
	"obs.(*Registry).HistogramL": "item 6's per-stage histograms",
	// Small accessors that tests read.
	"exp.(*Engine).Options":  "accessor tests read",
	"exp.Variant.String":     "accessor tests read",
	"gem5.Stats.Metric":      "accessor tests read",
	"obs.(*Progress).Counts": "accessor tests read",
	"popcache.(*Cache).Dir":  "accessor tests read",
	"sim.(*Result).Metric":   "accessor tests read",
	"randx.(*Rand).Normal":   "the Gaussian draw of tests and benchmarks",
	// Op constructors that hand-built programs use.
	"workload.Load":  "op constructor for hand-built programs",
	"workload.Store": "op constructor for hand-built programs",
}

// TestProductionIsLinked checks, function by function, that production
// code under internal/ is what a binary links: it builds every cmd/ and
// examples/ binary and spabench without inlining, reads their symbols
// with go tool nm, and fails on an unlinked function missing from
// linkAllowed or on an allowlist entry that is linked or gone. It builds
// 14 binaries, so it runs only with SPA_LINKSCAN=1:
//
//	SPA_LINKSCAN=1 go test -run TestProductionIsLinked -v .
func TestProductionIsLinked(t *testing.T) {
	if os.Getenv("SPA_LINKSCAN") != "1" {
		t.Skip("set SPA_LINKSCAN=1 to build every binary and scan its symbols")
	}
	out := t.TempDir()
	build := func(dir, dst string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=all=-l", "-o", dst}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, b)
		}
	}
	build(".", filepath.Join(out, "cmd")+"/", "./cmd/...")
	build(".", filepath.Join(out, "examples")+"/", "./examples/...")
	build("spabench", filepath.Join(out, "spabench", "spabench"), ".")

	bins, err := filepath.Glob(filepath.Join(out, "*", "*"))
	if err != nil || len(bins) != 14 {
		t.Fatalf("built %d binaries, want 14 (%v)", len(bins), err)
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		b, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 3 {
				linked[strings.Join(f[2:], " ")] = true
			}
		}
	}
	syms := make([]string, 0, len(linked))
	for s := range linked {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	isLinked := func(sym string, generic bool) bool {
		if !generic {
			return linked[sym]
		}
		i := sort.SearchStrings(syms, sym+"[")
		return i < len(syms) && strings.HasPrefix(syms[i], sym+"[")
	}

	var unlinked []string
	lines := 0
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			key, generic := funcKey(pkg, fn)
			if isLinked("repro/internal/"+key, generic) {
				continue
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			n := fset.Position(fn.End()).Line - fset.Position(start).Line + 1
			lines += n
			unlinked = append(unlinked, key)
			t.Logf("unlinked: %s (%d lines, %s)", key, n, fset.Position(fn.Pos()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d unlinked functions, %d lines", len(unlinked), lines)

	seen := map[string]bool{}
	for _, key := range unlinked {
		seen[key] = true
		if _, ok := linkAllowed[key]; !ok {
			t.Errorf("%s is linked by no binary: delete it, call it from a binary, or list it with a reason", key)
		}
	}
	for key := range linkAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s is now linked or gone: remove it", key)
		}
	}
}

// funcKey returns fn's linker symbol relative to repro/internal/ —
// pkg.F, pkg.T.M or pkg.(*T).M — and whether it is a generic function,
// whose instantiations the linker names by the key followed by "[".
// Methods of generic types are not matched: internal/ declares none.
func funcKey(pkg string, fn *ast.FuncDecl) (string, bool) {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name, fn.Type.TypeParams != nil
	}
	switch typ := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		return pkg + ".(*" + typ.X.(*ast.Ident).Name + ")." + fn.Name.Name, false
	default:
		return pkg + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name, false
	}
}
