package keytree

// Kept only for the benchmark's mirror tree: ROADMAP 1(b) removes its
// call, then the next change deletes this file. There is one marking.

import "fmt"

// Strategy is empty: there is no placement left to choose.
type Strategy struct{}

// NewStrategy accepts only the paper's marking, "" or "paper".
func NewStrategy(name string) (Strategy, error) {
	if name != "" && name != "paper" {
		return Strategy{}, fmt.Errorf("keytree: unknown strategy %q (only \"paper\")", name)
	}
	return Strategy{}, nil
}

// WithStrategy does nothing.
func WithStrategy(Strategy) Option { return func(*Tree) {} }
