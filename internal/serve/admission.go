package serve

import (
	"context"
	"errors"
	"sync"
)

// Admission-control rejections. Handlers map ErrTenantLimit to 429 (the
// tenant is over its own cap; backing off helps) and ErrQueueFull to 503 (the
// server as a whole is saturated).
var (
	ErrTenantLimit = errors.New("tenant concurrency limit")
	ErrQueueFull   = errors.New("work queue full")
)

// admission is a bounded work queue with per-tenant concurrency caps:
// MaxInflight requests execute at once, up to MaxQueue more wait, anything
// beyond is rejected immediately — so overload surfaces as fast 429/503
// responses with Retry-After, never as unbounded goroutine pileup. A tenant
// over its own cap is rejected before it can occupy queue space that other
// tenants need.
type admission struct {
	slots chan struct{} // semaphore: capacity = maxInflight

	mu        sync.Mutex
	queued    int
	maxQueue  int
	tenantCap int
	tenants   map[string]int
}

func newAdmission(maxInflight, maxQueue, tenantCap int) *admission {
	return &admission{
		slots:     make(chan struct{}, maxInflight),
		maxQueue:  maxQueue,
		tenantCap: tenantCap,
		tenants:   make(map[string]int),
	}
}

// acquire admits one request for tenant, blocking in the bounded queue until
// an execution slot frees or ctx is done. On success the caller must release.
func (a *admission) acquire(ctx context.Context, tenant string) error {
	a.mu.Lock()
	if a.tenantCap > 0 && a.tenants[tenant] >= a.tenantCap {
		a.mu.Unlock()
		return ErrTenantLimit
	}
	// Fast path: a free slot admits without queueing.
	select {
	case a.slots <- struct{}{}:
		a.tenants[tenant]++
		a.mu.Unlock()
		return nil
	default:
	}
	if a.queued >= a.maxQueue {
		a.mu.Unlock()
		return ErrQueueFull
	}
	a.queued++
	a.tenants[tenant]++ // reserve the tenant slot while queued
	a.mu.Unlock()

	select {
	case a.slots <- struct{}{}:
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		a.queued--
		a.tenants[tenant]--
		a.mu.Unlock()
		return ctx.Err()
	}
}

// release returns the slot acquired for tenant.
func (a *admission) release(tenant string) {
	<-a.slots
	a.mu.Lock()
	if a.tenants[tenant] <= 1 {
		delete(a.tenants, tenant)
	} else {
		a.tenants[tenant]--
	}
	a.mu.Unlock()
}

// depth reports current inflight and queued counts (for the degradation
// ladder, /statz and metrics).
func (a *admission) depth() (inflight, queued int) {
	a.mu.Lock()
	q := a.queued
	a.mu.Unlock()
	return len(a.slots), q
}
