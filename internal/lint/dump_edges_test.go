package lint

import (
	"fmt"
	"go/token"
	"os"
	"testing"
)

func TestDumpLockEdges(t *testing.T) {
	if os.Getenv("DUMP_EDGES") == "" {
		t.Skip("set DUMP_EDGES=1")
	}
	lockOrderDebug = func(from, to, via string, pos token.Position) {
		fmt.Printf("EDGE %-28s -> %-28s via=%-16s %s:%d\n", from, to, via, pos.Filename, pos.Line)
	}
	defer func() { lockOrderDebug = nil }()
	runOnRepo(t, LockOrder)
}

func TestDumpKeyFlowFacts(t *testing.T) {
	if os.Getenv("DUMP_FACTS") == "" {
		t.Skip("set DUMP_FACTS=1")
	}
	keyFlowDebug = func(fn string, pos token.Position, bits uint64, sink string) {
		fmt.Printf("LEAK %-24s bits=%#x %-40s %s:%d\n", fn, bits, sink, pos.Filename, pos.Line)
	}
	defer func() { keyFlowDebug = nil }()
	runOnRepo(t, KeyFlow)
}

func runOnRepo(t *testing.T, a *Analyzer) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	if _, err := Run(loader, []string{"./..."}, []*Analyzer{a}); err != nil {
		t.Fatal(err)
	}
}
