//go:build linux && (amd64 || arm64)

package diskstore

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages and return without waiting for it.
const syncFileRangeWrite = 2

// writeback asks the kernel to start writing f back from offset from to
// its end (sync_file_range with nbytes 0). It is only a hint: it waits
// for nothing, makes nothing durable, and its error is dropped, since a
// write that fails comes back from the fsync that follows. amd64 and
// arm64 share the plain (fd, offset, nbytes, flags) argument layout;
// 386 and ppc64 do not, and get the no-op.
func writeback(f *os.File, from int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		syscall.Syscall6(syscall.SYS_SYNC_FILE_RANGE, fd, uintptr(from), 0, syncFileRangeWrite, 0, 0)
	})
}
