package lingo

import "sync"

// MatcherPool hands out NameMatchers over one shared, read-only Thesaurus.
// A NameMatcher memoizes tokenizations and token-pair similarities and is
// therefore not safe for concurrent use; the pool gives each concurrent
// worker its own instance while letting the warm memo caches survive from
// job to job instead of being rebuilt per call.
//
// The pool itself is safe for concurrent use. The thesaurus passed to
// NewMatcherPool must not be mutated afterwards — every pooled matcher
// reads it without locking.
type MatcherPool struct {
	thesaurus *Thesaurus
	pool      sync.Pool
}

// NewMatcherPool returns a pool of default-tuned NameMatchers over the
// given thesaurus (nil selects an empty thesaurus, as in NewNameMatcher).
func NewMatcherPool(t *Thesaurus) *MatcherPool {
	if t == nil {
		t = NewThesaurus()
	}
	p := &MatcherPool{thesaurus: t}
	p.pool.New = func() any { return NewNameMatcher(p.thesaurus) }
	return p
}

// Get returns a NameMatcher for exclusive use by one goroutine. Return it
// with Put when done so its warm caches can be reused.
func (p *MatcherPool) Get() *NameMatcher {
	return p.pool.Get().(*NameMatcher)
}

// Put returns a matcher obtained from Get to the pool. The matcher must
// not be used after Put.
func (p *MatcherPool) Put(m *NameMatcher) {
	if m == nil {
		return
	}
	p.pool.Put(m)
}
