package sim

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSimImportsNoLiveStack keeps the simulator off the live delivery
// stack: the replay hands arrivals straight to core.Proxy, so no broker,
// wire, host or burst code runs in a simulated year, and optimising those
// layers cannot move the sim-year benchmark.
func TestSimImportsNoLiveStack(t *testing.T) {
	forbidden := map[string]bool{
		"lasthop/internal/pubsub": true,
		"lasthop/internal/wire":   true,
		"lasthop/internal/host":   true,
		"lasthop/internal/burst":  true,
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files found")
	}
}
