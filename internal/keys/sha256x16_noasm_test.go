//go:build !amd64 || purego

package keys

// kernelPaths is empty: no 16-lane kernel is built.
func kernelPaths() []hashPath { return nil }
