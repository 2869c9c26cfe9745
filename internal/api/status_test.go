package api

import (
	"fmt"
	"net/http"
	"testing"

	"securearchive/internal/store"
)

// TestKeyTooLongIsTheCallersFault: a backend refusing a name it cannot
// record is a 400, not a 500, however deep the vault wrapped it.
func TestKeyTooLongIsTheCallersFault(t *testing.T) {
	err := fmt.Errorf("core: disperse x chunk 0 shard 3: %w", fmt.Errorf("%w: object id 70000 bytes", store.ErrKeyTooLong))
	if status, code := errorStatus(err); status != http.StatusBadRequest || code != CodeBadRequest {
		t.Fatalf("errorStatus = %d %s, want 400 %s", status, code, CodeBadRequest)
	}
}
