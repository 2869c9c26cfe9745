//go:build linux && (amd64 || arm64)

package diskstore

import (
	"os"
	"sync"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages and return without waiting for it.
const syncFileRangeWrite = 2

// writebackHint issues sync_file_range(fd, from, 0,
// SYNC_FILE_RANGE_WRITE) on one file through its RawConn. The RawConn
// and the callback Control runs are made once, at open, and the callback
// reads its offset from the struct under mu, so a hint allocates nothing.
// Control holds the descriptor for the call, so a hint racing Close
// reaches the file or no file; on a closed one it does nothing. amd64
// and arm64 share the plain (fd, offset, nbytes, flags) argument layout;
// 386 and ppc64 do not, and get the no-op.
type writebackHint struct {
	rc   syscall.RawConn
	mu   sync.Mutex
	from int64
	call func(fd uintptr)
}

func (h *writebackHint) open(f *os.File) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	h.rc = rc
	h.call = func(fd uintptr) {
		syscall.Syscall6(syscall.SYS_SYNC_FILE_RANGE, fd, uintptr(h.from), 0, syncFileRangeWrite, 0, 0)
	}
}

// start hints the range from from to the file's end. Its error is
// dropped: a write that fails comes back from the fsync that follows.
func (h *writebackHint) start(from int64) {
	if h.rc == nil {
		return
	}
	h.mu.Lock()
	h.from = from
	h.rc.Control(h.call)
	h.mu.Unlock()
}
