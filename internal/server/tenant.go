package server

import (
	"fmt"
	"sync"

	"enframe/internal/obs"
)

// tenantHeader carries the caller's tenant identity when the request body
// does not; the body field wins when both are present.
const tenantHeader = "X-Tenant-Id"

// maxTenantIDLen bounds what an inbound tenant identifier may inject into
// metric names and logs.
const maxTenantIDLen = 64

// maxTenantSeries bounds the number of tenants that get their own metric
// series; beyond it, accounting still works (quotas are per real tenant)
// but the extra tenants share the "overflow" series, so a tenant-id
// cardinality attack cannot balloon the registry.
const maxTenantSeries = 32

// tenantLimiter is the fairness-aware half of admission control: it caps
// how many admission slots (executing + queued) any single named tenant may
// occupy, so one hot tenant saturating the accept queue still leaves
// capacity for everyone else. Anonymous traffic (no tenant field, no
// X-Tenant-Id header) is accounted but never throttled — without an
// identity there is nothing fair to enforce against.
type tenantLimiter struct {
	quota int

	mu     sync.Mutex
	active map[string]int  // tenant → admission slots currently held
	series map[string]bool // tenants with their own metric series

	reg        *obs.Registry
	mRequests  *obs.Counter
	mThrottled *obs.Counter
	gTenants   *obs.Gauge
}

func newTenantLimiter(quota int, reg *obs.Registry) *tenantLimiter {
	return &tenantLimiter{
		quota:      quota,
		active:     map[string]int{},
		series:     map[string]bool{},
		reg:        reg,
		mRequests:  reg.Counter("server.tenant.requests"),
		mThrottled: reg.Counter("server.tenant.throttled"),
		gTenants:   reg.Gauge("server.tenant.active"),
	}
}

// resolveTenant picks the request's tenant identity: the body field wins,
// then the X-Tenant-Id header; empty means anonymous. The result is
// sanitized for use in metric names and logs.
func resolveTenant(field, header string) string {
	id := field
	if id == "" {
		id = header
	}
	return sanitizeTenant(id)
}

// sanitizeTenant truncates and restricts a tenant identifier to
// [A-Za-z0-9._-], replacing everything else with '_'.
func sanitizeTenant(id string) string {
	if len(id) > maxTenantIDLen {
		id = id[:maxTenantIDLen]
	}
	b := []byte(id)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// seriesID maps a tenant onto its metric-series name, folding tenants past
// the cardinality cap into "overflow". Callers hold t.mu.
func (t *tenantLimiter) seriesID(id string) string {
	if t.series[id] {
		return id
	}
	if len(t.series) < maxTenantSeries {
		t.series[id] = true
		return id
	}
	return "overflow"
}

// acquire claims one admission slot for the tenant, or reports that the
// tenant is over quota (the caller answers 429). Anonymous requests
// (id == "") always succeed.
func (t *tenantLimiter) acquire(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mRequests.Inc()
	if id == "" {
		return true
	}
	sid := t.seriesID(id)
	if t.active[id] >= t.quota {
		t.mThrottled.Inc()
		t.reg.Counter(fmt.Sprintf("server.tenant.%s.throttled", sid)).Inc()
		return false
	}
	t.active[id]++
	t.reg.Counter(fmt.Sprintf("server.tenant.%s.requests", sid)).Inc()
	t.reg.Gauge(fmt.Sprintf("server.tenant.%s.inflight", sid)).Set(float64(t.active[id]))
	t.gTenants.Set(float64(len(t.active)))
	return true
}

// release returns the tenant's admission slot.
func (t *tenantLimiter) release(id string) {
	if id == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active[id] <= 1 {
		delete(t.active, id)
	} else {
		t.active[id]--
	}
	t.reg.Gauge(fmt.Sprintf("server.tenant.%s.inflight", t.seriesID(id))).Set(float64(t.active[id]))
	t.gTenants.Set(float64(len(t.active)))
}
