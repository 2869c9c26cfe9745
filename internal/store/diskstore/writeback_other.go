//go:build !(linux && (amd64 || arm64))

package diskstore

import "os"

// writeback is a no-op where the store does not issue sync_file_range:
// the fsync alone starts and waits for the writeback.
func writeback(*os.File, int64) {}
