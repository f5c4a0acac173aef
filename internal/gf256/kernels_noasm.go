//go:build !amd64 || purego

package gf256

func kernelName() string { return "generic" }

func cpuFeatureNames() []string { return nil }

func mulAddKernel(dst, src []byte, c byte) { mulAddGeneric(dst, src, c) }
