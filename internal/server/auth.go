package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/tenant"
)

// The multi-tenant front door. With a tenants file configured
// (Options.TenantsFile), every /v1 endpoint requires a bearer token
// that resolves to a configured tenant; without one the registry is
// disabled and everything runs as the anonymous tenant — existing
// single-tenant deployments see no change. Admission control (rate
// limits, in-flight quotas) applies only at the submission endpoints;
// polling a job you were told about is never throttled.

// tenantCtxKey carries the authenticated *tenant.Tenant in the request
// context from the auth gate to the handlers.
type tenantCtxKey struct{}

// bearerToken extracts the request's API token: an
// "Authorization: Bearer <tok>" header, or the X-API-Token header as
// a curl-friendly fallback.
func bearerToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
	}
	return r.Header.Get("X-API-Token")
}

// authenticate gates one /v1 request. It returns the resolved tenant,
// or nil after writing the 401 — anonymous when the registry is
// disabled, a configured tenant otherwise.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) *tenant.Tenant {
	tn, ok := s.tenants.Lookup(bearerToken(r))
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="pearld"`)
		httpError(w, http.StatusUnauthorized, "missing or unknown API token")
		return nil
	}
	return tn
}

// tenantOf returns the authenticated tenant the auth gate stored for
// this request, defaulting to anonymous (requests that bypass the
// gate, e.g. in-process tests hitting handlers directly).
func (s *Server) tenantOf(r *http.Request) *tenant.Tenant {
	if tn, ok := r.Context().Value(tenantCtxKey{}).(*tenant.Tenant); ok {
		return tn
	}
	return s.tenants.Anonymous()
}

// admitRequest applies the tenant's request rate limit; false means
// the 429 (with Retry-After) has been written.
func (s *Server) admitRequest(w http.ResponseWriter, tn *tenant.Tenant) bool {
	ok, retry := tn.AllowRequest(time.Now())
	if !ok {
		s.metrics.tenantThrottled(tn.Name())
		httpRetryError(w, http.StatusTooManyRequests, retry,
			"tenant %s exceeded its request rate limit", tn.Name())
		return false
	}
	return true
}

// quotaRetryAfter is the Retry-After hint for in-flight quota breaches;
// slots free as jobs finish, so there is no exact accrual time to
// report the way the rate bucket has.
const quotaRetryAfter = time.Second

// acquireSlots reserves n in-flight slots against the tenant's quota;
// false means the 429 has been written. Each admitted job releases its
// slot at terminal state: at once for a cache hit, through the
// subscriber armJob registers otherwise.
func (s *Server) acquireSlots(w http.ResponseWriter, tn *tenant.Tenant, n int) bool {
	if !tn.AcquireSlots(n) {
		s.metrics.tenantThrottled(tn.Name())
		httpRetryError(w, http.StatusTooManyRequests, quotaRetryAfter,
			"tenant %s would exceed its max_in_flight quota (%d in flight, limit %d, requested %d)",
			tn.Name(), tn.InFlight(), tn.MaxInFlight(), n)
		return false
	}
	return true
}

// handleTenantReload is POST /v1/admin/tenants/reload: re-reads the
// tenants file so token/limit edits land without a restart (SIGHUP
// does the same from the shell). Only admin-flagged tenants may call
// it; with no tenants file the endpoint (like the rest of the admin
// surface) has nothing to reload.
func (s *Server) handleTenantReload(w http.ResponseWriter, r *http.Request) {
	if !s.tenants.Enabled() {
		httpError(w, http.StatusConflict, "no tenants file configured")
		return
	}
	if !s.tenantOf(r).Admin() {
		httpError(w, http.StatusForbidden, "tenant %s is not an admin", s.tenantOf(r).Name())
		return
	}
	names, err := s.ReloadTenants()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "reload failed, previous tenants kept: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": names})
}

// ReloadTenants re-reads the tenants file (the SIGHUP entry point) and
// returns the resulting tenant names. On error the previous tenant set
// stays in effect.
func (s *Server) ReloadTenants() ([]string, error) {
	if err := s.tenants.Reload(); err != nil {
		return nil, err
	}
	return s.tenants.Names(), nil
}

// httpRetryError writes a throttling/overload response: the
// Retry-After header in whole seconds (rounded up, at least 1) plus a
// structured body carrying the exact retry_after_ms for clients that
// want finer pacing.
func httpRetryError(w http.ResponseWriter, code int, retry time.Duration, format string, args ...any) {
	if retry <= 0 {
		retry = time.Second
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, code, apiError{
		Error:        fmt.Sprintf(format, args...),
		RetryAfterMS: retry.Milliseconds(),
	})
}

// withTenant stores the authenticated tenant in the request context.
func withTenant(r *http.Request, tn *tenant.Tenant) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn))
}
