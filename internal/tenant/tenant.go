// Package tenant is pearld's multi-tenant policy layer: API-token
// authentication, per-tenant request rate limits (token bucket) and
// max-in-flight quotas, plus the fair-share weight the scheduler uses.
//
// Policy comes from a JSON file (the daemon's -tenants flag):
//
//	{
//	 "tenants": [
//	  {"name": "alice", "token": "tok-alice", "weight": 4,
//	   "rate_per_sec": 10, "burst": 20, "max_in_flight": 64,
//	   "admin": true},
//	  {"name": "bob", "token": "tok-bob"}
//	 ]
//	}
//
// The file is hot-reloadable: Reload re-reads it and swaps the limits
// while preserving each surviving tenant's runtime state (bucket level
// and in-flight count), so a reload never resets a tenant's quota
// accounting mid-flight. With no file configured the registry is
// disabled and every request maps to the anonymous tenant with no
// limits — existing single-tenant deployments keep working unchanged.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// AnonymousName is the tenant every request maps to when no tenants
// file is configured.
const AnonymousName = "anonymous"

// Limits is the operator-configured policy for one tenant, as it
// appears in the tenants file.
type Limits struct {
	// Name identifies the tenant in metrics and job status.
	Name string `json:"name"`
	// Token is the bearer credential requests present.
	Token string `json:"token"`
	// Weight is the fair-share scheduling weight (default 1): a
	// weight-2 tenant drains its queue twice as fast as a weight-1 one
	// under contention.
	Weight int `json:"weight,omitempty"`
	// RatePerSec refills the request token bucket; 0 means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst caps the bucket (default max(RatePerSec, 1)).
	Burst float64 `json:"burst,omitempty"`
	// MaxInFlight caps the tenant's live (non-terminal) jobs, counting
	// every expanded batch point; 0 means unlimited.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxStreams caps the tenant's concurrently open event streams
	// (SSE); 0 defers to the server's default cap.
	MaxStreams int `json:"max_streams,omitempty"`
	// Admin marks tenants allowed to hit the admin endpoints
	// (tenants-file reload).
	Admin bool `json:"admin,omitempty"`
}

// file is the on-disk shape.
type file struct {
	Tenants []Limits `json:"tenants"`
}

// Tenant is one authenticated principal: its current limits plus the
// runtime state those limits meter (bucket level, in-flight count).
// All fields are guarded by mu; Tenants are shared across requests and
// survive reloads.
type Tenant struct {
	mu       sync.Mutex
	limits   Limits
	tokens   float64 // request-bucket level
	last     time.Time
	inflight int
	streams  int
}

func newTenant(l Limits) *Tenant {
	l = l.withDefaults()
	return &Tenant{limits: l, tokens: l.Burst, last: time.Now()}
}

func (l Limits) withDefaults() Limits {
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.Burst <= 0 {
		l.Burst = l.RatePerSec
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// setLimits swaps the policy while preserving runtime state; the bucket
// is clamped to the new burst so shrinking a limit takes effect at
// once.
func (t *Tenant) setLimits(l Limits) {
	l = l.withDefaults()
	t.mu.Lock()
	t.limits = l
	if t.tokens > l.Burst {
		t.tokens = l.Burst
	}
	t.mu.Unlock()
}

// Name returns the tenant's stable identity.
func (t *Tenant) Name() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.Name
}

// Weight returns the fair-share scheduling weight (>= 1).
func (t *Tenant) Weight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.Weight
}

// Admin reports whether the tenant may call admin endpoints.
func (t *Tenant) Admin() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.Admin
}

// AllowRequest charges one request against the tenant's token bucket.
// When the bucket is empty it returns false and how long until the
// next token accrues — the Retry-After the caller should surface.
func (t *Tenant) AllowRequest(now time.Time) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limits.RatePerSec <= 0 {
		return true, 0
	}
	if dt := now.Sub(t.last); dt > 0 {
		t.tokens += float64(dt.Seconds() * t.limits.RatePerSec)
		if t.tokens > t.limits.Burst {
			t.tokens = t.limits.Burst
		}
		t.last = now
	}
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	return false, time.Duration((1 - t.tokens) / t.limits.RatePerSec * float64(time.Second))
}

// AcquireSlots reserves n in-flight job slots, all or nothing; callers
// release each slot with ReleaseSlot as its job reaches a terminal
// state. False means the quota would be exceeded.
func (t *Tenant) AcquireSlots(n int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limits.MaxInFlight > 0 && t.inflight+n > t.limits.MaxInFlight {
		return false
	}
	t.inflight += n
	return true
}

// ReleaseSlot returns one in-flight slot.
func (t *Tenant) ReleaseSlot() {
	t.mu.Lock()
	if t.inflight > 0 {
		t.inflight--
	}
	t.mu.Unlock()
}

// AcquireStream reserves one concurrent-stream slot against the
// tenant's max_streams limit, deferring to fallback (the server's
// default cap) when the tenant has none configured; fallback <= 0
// means uncapped. Callers must pair a successful acquire with
// ReleaseStream when the stream closes — including on abandoned
// connections.
func (t *Tenant) AcquireStream(fallback int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	limit := t.limits.MaxStreams
	if limit <= 0 {
		limit = fallback
	}
	if limit > 0 && t.streams >= limit {
		return false
	}
	t.streams++
	return true
}

// ReleaseStream returns one concurrent-stream slot.
func (t *Tenant) ReleaseStream() {
	t.mu.Lock()
	if t.streams > 0 {
		t.streams--
	}
	t.mu.Unlock()
}

// Streams reports the tenant's currently open event streams.
func (t *Tenant) Streams() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streams
}

// InFlight reports the tenant's live job count.
func (t *Tenant) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight
}

// MaxInFlight reports the quota (0 = unlimited).
func (t *Tenant) MaxInFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.MaxInFlight
}

// Registry maps API tokens to tenants. A registry opened without a
// path is disabled: Lookup resolves every token (including none) to
// the anonymous tenant, so authentication is a no-op until the
// operator opts in.
type Registry struct {
	path string
	anon *Tenant

	mu      sync.Mutex
	byToken map[string]*Tenant
	byName  map[string]*Tenant
}

// Open loads the tenants file at path, or returns a disabled registry
// when path is empty. A file that exists but does not parse or
// validate is a boot error — a daemon never starts half-authenticated.
func Open(path string) (*Registry, error) {
	r := &Registry{
		path:    path,
		anon:    newTenant(Limits{Name: AnonymousName}),
		byToken: map[string]*Tenant{},
		byName:  map[string]*Tenant{},
	}
	if path == "" {
		return r, nil
	}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Enabled reports whether token authentication is configured.
func (r *Registry) Enabled() bool { return r.path != "" }

// Anonymous returns the default tenant used when the registry is
// disabled.
func (r *Registry) Anonymous() *Tenant { return r.anon }

// Reload re-reads the tenants file and swaps the limits in. Tenants
// that persist (by name) keep their runtime state; new ones start
// fresh; removed ones stop resolving (their in-flight jobs still
// release against the old Tenant value harmlessly). On any error the
// previous state is kept — a bad edit cannot lock every client out.
func (r *Registry) Reload() error {
	if r.path == "" {
		return fmt.Errorf("tenant: no tenants file configured")
	}
	raw, err := os.ReadFile(r.path)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	var f file
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("tenant: parsing %s: %w", r.path, err)
	}
	if err := validate(f.Tenants); err != nil {
		return fmt.Errorf("tenant: %s: %w", r.path, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byToken := make(map[string]*Tenant, len(f.Tenants))
	byName := make(map[string]*Tenant, len(f.Tenants))
	for _, l := range f.Tenants {
		t, ok := r.byName[l.Name]
		if ok {
			t.setLimits(l)
		} else {
			t = newTenant(l)
		}
		byToken[l.Token] = t
		byName[l.Name] = t
	}
	r.byToken, r.byName = byToken, byName
	return nil
}

func validate(ts []Limits) error {
	if len(ts) == 0 {
		return fmt.Errorf("no tenants defined")
	}
	names := map[string]bool{}
	tokens := map[string]bool{}
	for i, l := range ts {
		if l.Name == "" || l.Name == AnonymousName {
			return fmt.Errorf("tenant %d: name %q is empty or reserved", i, l.Name)
		}
		if len(l.Token) < 4 {
			return fmt.Errorf("tenant %q: token must be at least 4 characters", l.Name)
		}
		if names[l.Name] {
			return fmt.Errorf("duplicate tenant name %q", l.Name)
		}
		if tokens[l.Token] {
			return fmt.Errorf("tenant %q: token already assigned", l.Name)
		}
		if l.Weight < 0 || l.RatePerSec < 0 || l.Burst < 0 || l.MaxInFlight < 0 || l.MaxStreams < 0 {
			return fmt.Errorf("tenant %q: negative limit", l.Name)
		}
		names[l.Name], tokens[l.Token] = true, true
	}
	return nil
}

// Lookup resolves a bearer token. A disabled registry resolves
// anything (the anonymous tenant); an enabled one resolves only
// configured tokens.
func (r *Registry) Lookup(token string) (*Tenant, bool) {
	if !r.Enabled() {
		return r.anon, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byToken[token]
	return t, ok
}

// Len reports the configured tenant count (0 when disabled).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}

// InFlight snapshots each configured tenant's live job count (plus
// the anonymous tenant when it has any), for metrics attribution.
func (r *Registry) InFlight() map[string]int {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.byName)+1)
	for _, t := range r.byName {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	out := make(map[string]int, len(tenants)+1)
	for _, t := range tenants {
		out[t.Name()] = t.InFlight()
	}
	if n := r.anon.InFlight(); n > 0 || !r.Enabled() {
		out[AnonymousName] = n
	}
	return out
}

// Names lists the configured tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}
