//go:build !(linux && (amd64 || arm64))

package diskstore

import "os"

// writebackHint is empty where the store does not issue
// sync_file_range: the fsync alone starts and waits for the writeback.
type writebackHint struct{}

func (*writebackHint) open(*os.File) {}
func (*writebackHint) start(int64)   {}
