package lint

import (
	"slices"
	"sort"
	"testing"
)

// TestLockGraph pins the module's lock-acquisition graph to the eight
// nesting edges DESIGN.md "The lock order" draws. A nesting that
// appears or disappears is a reviewed change to both.
func TestLockGraph(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	pass, err := newPass(loader, []string{"./..."}, &diags)
	if err != nil {
		t.Fatal(err)
	}
	w := walkLocks(pass)
	var got []string
	for _, e := range w.edges {
		got = append(got, w.class[e.from]+" -> "+w.class[e.to])
	}
	sort.Strings(got)
	got = slices.Compact(got)
	want := []string{
		"keyserverd.daemon.mu -> obs.Registry.trace.mu",
		"keyserverd.daemon.mu -> rekey.Server.mu",
		"keyserverd.daemon.mu -> rekey.Server.treeMu",
		"keyserverd.daemon.mu -> udptrans.Server.mu",
		"rekey.Member.mu -> keys.RootVerifier.mu",
		"rekey.Server.mu -> obs.Registry.trace.mu",
		"rekey.Server.mu -> rekey.Server.treeMu",
		"udptrans.Server.mu -> rekey.Server.treeMu",
	}
	if !slices.Equal(got, want) {
		t.Errorf("lock graph:\n  got  %q\n  want %q", got, want)
	}
}
