//go:build !amd64

package gf256

// No vector kernels on this platform: the vector prefix is empty and the
// portable kernels in kernels.go do all the work.
const useAVX2 = false

func mulAddVec(tab *[256]byte, src, dst []byte) int    { return 0 }
func mulAssignVec(tab *[256]byte, src, dst []byte) int { return 0 }
func xorVec(src, dst []byte) int                       { return 0 }
