// Package api exposes a Vault as a network archive service: HTTP/JSON
// control operations with *streaming* object bodies — a PUT feeds the
// vault's chunked encode→stage pipeline straight from the request body
// and a GET streams decoded chunks into the response, so object size
// never dictates server memory. Requests are namespaced per tenant
// (X-Archive-Tenant), admission-controlled by per-tenant byte/object
// quotas, and backpressured by a token-bucket rate limiter that answers
// 429 with Retry-After. The package's sibling client
// (securearchive/internal/api/client) speaks this wire format.
package api

import "fmt"

// TenantHeader carries the caller's tenant id; absent means
// DefaultTenant.
const TenantHeader = "X-Archive-Tenant"

// DefaultTenant is the namespace used when no tenant header is sent.
const DefaultTenant = "default"

// TraceHeader carries the server-side trace ID on every traced
// response, so a failed request is greppable in the server's /traces
// output. The server also echoes a standard W3C traceparent header.
const TraceHeader = "X-Archive-Trace"

// PutResult is the body of a successful PUT response.
type PutResult struct {
	ID    string `json:"id"`
	Bytes int64  `json:"bytes"`
}

// StatResult mirrors core.ObjectInfo on the wire.
type StatResult struct {
	ID       string `json:"id"`
	Bytes    int64  `json:"bytes"`
	Scheme   string `json:"scheme"`
	Chunks   int    `json:"chunks"`
	Width    int    `json:"width"`
	ChainLen int    `json:"chain_len"`
}

// ScrubResult reports one object's stripe health after a scrub.
type ScrubResult struct {
	Object   string `json:"object"`
	Healthy  []int  `json:"healthy,omitempty"`
	Missing  []int  `json:"missing,omitempty"`
	Corrupt  []int  `json:"corrupt,omitempty"`
	Repaired bool   `json:"repaired"`
}

// RenewResult confirms a renewal.
type RenewResult struct {
	Object string `json:"object"`
	Mode   string `json:"mode"`
	// ChainLen is the integrity chain length after the renewal (only
	// meaningful for mode=integrity).
	ChainLen int `json:"chain_len,omitempty"`
}

// ListResult is the body of a tenant object listing.
type ListResult struct {
	Objects []string `json:"objects"`
}

// UsageResult reports a tenant's quota consumption.
type UsageResult struct {
	Tenant     string `json:"tenant"`
	Bytes      int64  `json:"bytes"`
	Objects    int64  `json:"objects"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
	MaxObjects int64  `json:"max_objects,omitempty"`
	// CacheBytes is the tenant's current residency in the vault's
	// decoded-object read cache (0 when the server runs without one).
	// Informational, not quota-charged: cached bytes are a transient
	// copy the vault may evict at any time.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
}

// errorBody is the JSON envelope every non-2xx response carries.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error is the typed failure the client surfaces for any non-2xx
// response: the HTTP status, a stable machine code ("not_found",
// "exists", "quota_bytes", "quota_objects", "rate_limited", ...) and
// the human message.
type Error struct {
	Status  int
	Code    string
	Message string
	// TraceID is the server-side trace ID from the response's
	// X-Archive-Trace header ("" when the server was not tracing); it
	// makes a failed request greppable in the server's /traces output.
	TraceID string
}

// Error renders e.g. `api: 404 not_found: object "t/x" not found
// (trace 4fa1b2c3d4e5f607)`.
func (e *Error) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("api: %d %s: %s (trace %s)", e.Status, e.Code, e.Message, e.TraceID)
	}
	return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Stable machine codes.
const (
	CodeNotFound     = "not_found"
	CodeExists       = "exists"
	CodeQuotaBytes   = "quota_bytes"
	CodeQuotaObjects = "quota_objects"
	CodeRateLimited  = "rate_limited"
	CodeDegraded     = "degraded"
	CodeBadRequest   = "bad_request"
	CodeCanceled     = "canceled"
	CodeInternal     = "internal"
)
