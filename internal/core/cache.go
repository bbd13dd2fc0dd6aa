package core

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"reveal/internal/obs"
)

// Template-cache metric names, registered on the global recorder's registry
// (and therefore exported on the /metrics endpoint) whenever observability
// is enabled.
const (
	MetricTemplateCacheHits      = "reveal_template_cache_hits_total"
	MetricTemplateCacheMisses    = "reveal_template_cache_misses_total"
	MetricTemplateCacheEvictions = "reveal_template_cache_evictions_total"
	MetricTemplateCacheEntries   = "reveal_template_cache_entries"
)

// TemplateCacheKey derives the canonical cache key of a profiling
// configuration: the device config (leakage model, port timing, memory
// size, trigger jitter), the device's PRNG seed, and the full profile
// options including the POI spec. Two campaigns with equal keys train
// byte-identical classifiers, so the trained templates can be shared.
func TemplateCacheKey(dev *Device, opts ProfileOptions) string {
	h := fnv.New64a()
	// Model is printed with %v: Go formats map fields in sorted key order,
	// so the fingerprint is deterministic.
	fmt.Fprintf(h, "%v|%d|%d|%d|%d|%d|", *dev.Model,
		dev.WaitBase, dev.WaitPerRejection, dev.MemSize, dev.NoiseSeed, dev.TriggerJitter)
	cfg, err := json.Marshal(opts)
	if err != nil {
		// ProfileOptions is plain data; Marshal cannot fail in practice,
		// but fall back to the fmt rendering rather than panic.
		cfg = []byte(fmt.Sprintf("%+v", opts))
	}
	h.Write(cfg)
	return fmt.Sprintf("tmpl-%016x", h.Sum64())
}

// TemplateCache is a concurrency-safe LRU cache of trained classifiers
// keyed by TemplateCacheKey. Repeated campaigns against the same (device
// config, PRNG seed, POI spec) skip the profiling stage entirely; a
// per-key in-flight table additionally deduplicates concurrent training so
// two jobs needing the same profile only run it once.
type TemplateCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	inflight map[string]*cacheCall
}

type cacheEntry struct {
	key string
	cls *CoefficientClassifier
}

// cacheCall is one in-flight training run other callers can wait on.
type cacheCall struct {
	done chan struct{}
	cls  *CoefficientClassifier
	err  error
}

// NewTemplateCache returns a cache holding at most capacity classifiers
// (minimum 1).
func NewTemplateCache(capacity int) *TemplateCache {
	if capacity < 1 {
		capacity = 1
	}
	return &TemplateCache{
		capacity: capacity,
		order:    list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*cacheCall{},
	}
}

// Len returns the number of cached classifiers.
func (c *TemplateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Put inserts (or refreshes) a classifier, evicting the least recently
// used entry when the cache is full.
func (c *TemplateCache) Put(key string, cls *CoefficientClassifier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, cls)
}

// put inserts with c.mu held.
func (c *TemplateCache) put(key string, cls *CoefficientClassifier) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).cls = cls
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, cls: cls})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		obs.Global().Registry().Counter(MetricTemplateCacheEvictions).Inc()
	}
	obs.Global().Registry().Gauge(MetricTemplateCacheEntries).Set(float64(c.order.Len()))
}

// GetOrTrain returns the cached classifier for key, or runs train to build
// and cache it. Concurrent callers with the same key share one training
// run: the first caller trains, the rest wait on its result (or their own
// ctx). The second return value reports whether the classifier came from
// the cache without training in this call.
func (c *TemplateCache) GetOrTrain(ctx context.Context, key string,
	train func(context.Context) (*CoefficientClassifier, error)) (*CoefficientClassifier, bool, error) {
	reg := obs.Global().Registry()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		cls := el.Value.(*cacheEntry).cls
		c.mu.Unlock()
		reg.Counter(MetricTemplateCacheHits).Inc()
		return cls, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
			if call.err != nil {
				return nil, false, call.err
			}
			reg.Counter(MetricTemplateCacheHits).Inc()
			return call.cls, true, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("core: waiting for in-flight profiling: %w", ctx.Err())
		}
	}
	call := &cacheCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()
	reg.Counter(MetricTemplateCacheMisses).Inc()

	trained := false
	defer func() {
		if trained {
			return
		}
		// train panicked: release the key, so the next caller trains
		// again and the waiters fail instead of blocking forever.
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		call.err = fmt.Errorf("core: training %s panicked", key)
		close(call.done)
	}()
	trainStart := time.Now()
	cls, err := train(ctx)
	trained = true
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.put(key, cls)
	}
	c.mu.Unlock()
	if err == nil {
		obs.Emit(obs.ServiceEvent{
			Type:    obs.EventCacheFill,
			TraceID: obs.TraceIDFrom(ctx),
			Detail:  fmt.Sprintf("trained %s in %.2fs", key, time.Since(trainStart).Seconds()),
		})
	}
	call.cls, call.err = cls, err
	close(call.done)
	if err != nil {
		return nil, false, err
	}
	return cls, false, nil
}
