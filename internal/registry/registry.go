// Package registry implements the persistent compiled-schema store behind
// the matching service's /v1/schemas and /v1/search endpoints: a
// goroutine-safe map of caller-named CompiledSchema artifacts, optionally
// mirrored to a directory of encoded artifact blobs so a restarted service
// reloads its corpus, plus the top-K corpus search that combines the
// vocabulary-overlap prefilter with full QoM ranking of the survivors.
package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"qmatch"
)

// ext is the on-disk artifact file extension.
const ext = ".qma"

// ErrNotFound is returned by operations naming an id the registry does
// not hold.
var ErrNotFound = errors.New("registry: schema not found")

// maxIDLen bounds registry ids; they become file names and URL path
// segments.
const maxIDLen = 128

// ValidateID checks a caller-chosen registry id: 1–128 characters of
// [A-Za-z0-9._-], starting with a letter or digit. Ids become file names
// (<id>.qma) and URL path segments, so path separators, dot-prefixes and
// exotic bytes are all rejected rather than escaped.
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("registry: empty id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("registry: id longer than %d bytes", maxIDLen)
	}
	for i := 0; i < len(id); i++ {
		b := id[i]
		switch {
		case 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9':
		case (b == '.' || b == '_' || b == '-') && i > 0:
		default:
			return fmt.Errorf("registry: id %q: byte %q at position %d (want [A-Za-z0-9._-], leading alphanumeric)", id, b, i)
		}
	}
	return nil
}

// Entry is one registered schema's metadata, as reported by List.
type Entry struct {
	// ID is the caller-chosen registry key.
	ID string `json:"id"`
	// ContentID is the artifact's content address (hex SHA-256 of its
	// canonical encoding).
	ContentID string `json:"contentId"`
	// Name is the schema's root element label.
	Name string `json:"name"`
	// Size is the schema's node count.
	Size int `json:"size"`
	// Terms is the size of the prefilter vocabulary.
	Terms int `json:"terms"`
}

// Registry is a goroutine-safe store of compiled schemas keyed by
// caller-chosen id. With a backing directory every Put/Delete is mirrored
// to disk before the in-memory map changes, so the map never claims state
// the disk does not hold.
type Registry struct {
	dir string // "" = memory-only

	mu      sync.RWMutex
	schemas map[string]*qmatch.CompiledSchema
	// matches caches pair-match reports between registered schemas, keyed
	// by id pair. The reports carry their pair-table state (Engines built
	// WithRematchState), so a Put replacing one side refreshes them
	// incrementally via Engine.Rematch instead of recomputing from scratch.
	// cells is the total pair-table cells of the cached matches.
	matches map[matchKey]cachedMatch
	cells   int64
	// quarantined lists the blobs Open moved aside; see Quarantined.
	quarantined []string
}

// matchKey identifies one cached pair match by registry ids.
type matchKey struct{ src, tgt string }

// cachedMatch is one cached report and the cells of its pair table.
type cachedMatch struct {
	rep   *qmatch.Report
	cells int64
}

// The registry retains reports for incremental refresh while both bounds
// hold: at most maxCachedMatches reports, and at most maxCachedCells
// pair-table cells in all. Each report pins its table, about 9 bytes per
// cell, so the cell budget caps parked tables at about 288 MiB. Beyond
// either bound matches are still served, just not cached.
const (
	maxCachedMatches = 512
	maxCachedCells   = 1 << 25
)

// Open returns a registry backed by dir, creating the directory if needed
// and loading every artifact blob (*.qma) already present — a restarted
// service resumes with its full corpus. An empty dir selects a
// memory-only registry.
//
// A blob that fails to decode is renamed to <id>.qma.corrupt and skipped,
// and Quarantined names it. Put does not fsync, so a crash can leave a
// truncated blob; refusing the whole store over it would keep the service
// down for one torn entry, while the rest of the corpus is intact. Open
// also removes the .put-* temp files a crash between write and rename
// leaves behind. I/O errors still abort Open.
func Open(dir string) (*Registry, error) {
	r := &Registry{
		dir:     dir,
		schemas: make(map[string]*qmatch.CompiledSchema),
		matches: make(map[matchKey]cachedMatch),
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: open %s: %w", dir, err)
	}
	temps, err := filepath.Glob(filepath.Join(dir, ".put-*"))
	if err != nil {
		return nil, fmt.Errorf("registry: open %s: %w", dir, err)
	}
	for _, path := range temps {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("registry: open %s: %w", dir, err)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		return nil, fmt.Errorf("registry: open %s: %w", dir, err)
	}
	for _, path := range names {
		id := strings.TrimSuffix(filepath.Base(path), ext)
		if ValidateID(id) != nil {
			continue // not a blob this registry wrote
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("registry: load %s: %w", path, err)
		}
		cs, err := qmatch.DecodeCompiled(bytes.NewReader(blob))
		if err != nil {
			if err := os.Rename(path, path+".corrupt"); err != nil {
				return nil, fmt.Errorf("registry: quarantine %s: %w", path, err)
			}
			r.quarantined = append(r.quarantined, path+".corrupt")
			continue
		}
		r.schemas[id] = cs
	}
	return r, nil
}

// Quarantined returns the paths of the blobs Open could not decode and
// renamed to <id>.qma.corrupt, in file-name order.
func (r *Registry) Quarantined() []string { return r.quarantined }

// Dir returns the backing directory ("" for memory-only).
func (r *Registry) Dir() string { return r.dir }

// Len returns the number of registered schemas.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.schemas)
}

// Has reports whether id is registered.
func (r *Registry) Has(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.schemas[id]
	return ok
}

// EntryOf builds the List-style metadata view of one compiled schema.
func EntryOf(id string, cs *qmatch.CompiledSchema) Entry {
	return Entry{
		ID:        id,
		ContentID: cs.ID(),
		Name:      cs.Name(),
		Size:      cs.Size(),
		Terms:     len(cs.Terms()),
	}
}

// Put registers a compiled schema under id, replacing any previous entry.
// With a backing directory the artifact is written atomically (temp file +
// rename) before the in-memory map is updated.
func (r *Registry) Put(id string, cs *qmatch.CompiledSchema) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if cs == nil {
		return fmt.Errorf("registry: put %s: nil schema", id)
	}
	if r.dir != "" {
		var buf bytes.Buffer
		if err := cs.Encode(&buf); err != nil {
			return fmt.Errorf("registry: put %s: %w", id, err)
		}
		tmp, err := os.CreateTemp(r.dir, ".put-*")
		if err != nil {
			return fmt.Errorf("registry: put %s: %w", id, err)
		}
		_, werr := tmp.Write(buf.Bytes())
		cerr := tmp.Close()
		if werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), filepath.Join(r.dir, id+ext))
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("registry: put %s: %w", id, werr)
		}
	}
	r.mu.Lock()
	r.schemas[id] = cs
	r.dropMatchesLocked(id)
	r.mu.Unlock()
	return nil
}

// dropMatchesLocked invalidates every cached match involving id. Callers
// hold the write lock.
func (r *Registry) dropMatchesLocked(id string) {
	for k, c := range r.matches {
		if k.src == id || k.tgt == id {
			delete(r.matches, k)
			r.cells -= c.cells
		}
	}
}

// cacheLocked caches rep, the match of src against tgt, under k when both
// cache bounds still hold with it; a report k already holds is replaced.
// Callers hold the write lock.
func (r *Registry) cacheLocked(k matchKey, rep *qmatch.Report, src, tgt *qmatch.CompiledSchema) {
	cells := int64(src.Size()) * int64(tgt.Size())
	old, had := r.matches[k]
	n, total := len(r.matches), r.cells+cells
	if had {
		n, total = n-1, total-old.cells
	}
	if n >= maxCachedMatches || total > maxCachedCells {
		return
	}
	r.matches[k] = cachedMatch{rep, cells}
	r.cells = total
}

// Get returns the compiled schema registered under id, or ErrNotFound.
func (r *Registry) Get(id string) (*qmatch.CompiledSchema, error) {
	r.mu.RLock()
	cs, ok := r.schemas[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return cs, nil
}

// Delete removes the schema registered under id (and its blob, when disk
// backed). Deleting an absent id returns ErrNotFound.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.schemas[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.dir != "" {
		if err := os.Remove(filepath.Join(r.dir, id+ext)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("registry: delete %s: %w", id, err)
		}
	}
	delete(r.schemas, id)
	r.dropMatchesLocked(id)
	return nil
}

// Match matches two registered schemas through the engine's compiled path
// and caches the report, so a later PutRematch of either side refreshes it
// incrementally. The second return reports a cache hit. Matching an id
// against itself is allowed. Reports come straight from the cache when
// present — callers must treat them as immutable.
func (r *Registry) Match(ctx context.Context, e *qmatch.Engine, srcID, tgtID string) (*qmatch.Report, bool, error) {
	r.mu.RLock()
	src, sok := r.schemas[srcID]
	tgt, tok := r.schemas[tgtID]
	cached, hit := r.matches[matchKey{srcID, tgtID}]
	r.mu.RUnlock()
	if !sok {
		return nil, false, fmt.Errorf("%w: %s", ErrNotFound, srcID)
	}
	if !tok {
		return nil, false, fmt.Errorf("%w: %s", ErrNotFound, tgtID)
	}
	if hit {
		return cached.rep, true, nil
	}
	rep, err := e.MatchCompiledContext(ctx, src, tgt)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	// Cache only while both ids still name the versions we matched — a
	// racing Put must not be shadowed by a stale report.
	if r.schemas[srcID] == src && r.schemas[tgtID] == tgt {
		r.cacheLocked(matchKey{srcID, tgtID}, rep, src, tgt)
	}
	r.mu.Unlock()
	return rep, false, nil
}

// RefreshStat describes one cached match refreshed incrementally by
// PutRematch: the pair's registry ids and the copied-vs-rescored breakdown.
type RefreshStat struct {
	Source  string              `json:"source"`
	Target  string              `json:"target"`
	Rematch qmatch.RematchStats `json:"rematch"`
}

// PutRematch registers a schema like Put, but instead of just dropping the
// cached matches involving id's previous version it re-matches each of
// them incrementally through e (Engine.Rematch): unchanged regions of the
// evolved schema are copied from the retained pair tables, only changed
// subtrees are rescored. Refreshes are reported per pair, sorted by id.
// A cached report the engine cannot rematch (it carries no pair-table
// state because e was not built WithRematchState, or another Engine
// matched it) is simply dropped — the registry never serves a stale match.
func (r *Registry) PutRematch(id string, cs *qmatch.CompiledSchema, e *qmatch.Engine) ([]RefreshStat, error) {
	type seed struct {
		key   matchKey
		rep   *qmatch.Report
		other *qmatch.CompiledSchema // the non-evolved side at seed time
	}
	r.mu.RLock()
	old := r.schemas[id]
	var seeds []seed
	for k, c := range r.matches {
		if k.src != id && k.tgt != id {
			continue
		}
		other := r.schemas[k.src]
		if k.src == id {
			other = r.schemas[k.tgt]
		}
		seeds = append(seeds, seed{k, c.rep, other})
	}
	r.mu.RUnlock()

	if err := r.Put(id, cs); err != nil { // drops the stale cache entries
		return nil, err
	}
	if old == nil || e == nil {
		return nil, nil
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].key.src != seeds[j].key.src {
			return seeds[i].key.src < seeds[j].key.src
		}
		return seeds[i].key.tgt < seeds[j].key.tgt
	})
	var out []RefreshStat
	for _, sd := range seeds {
		rep, err := e.Rematch(sd.rep, old, cs)
		if err == nil && sd.key.src == sd.key.tgt {
			// Self-match: the first rematch replaced the target side, the
			// second replaces the source side of the chained report.
			rep, err = e.Rematch(rep, old, cs)
		}
		if err != nil || rep.Rematch == nil {
			continue
		}
		r.mu.Lock()
		src, tgt := r.schemas[sd.key.src], r.schemas[sd.key.tgt]
		if r.schemas[id] == cs && src != nil && tgt != nil &&
			(sd.key.src == id || src == sd.other) &&
			(sd.key.tgt == id || tgt == sd.other) {
			r.cacheLocked(sd.key, rep, src, tgt)
		}
		r.mu.Unlock()
		out = append(out, RefreshStat{Source: sd.key.src, Target: sd.key.tgt, Rematch: *rep.Rematch})
	}
	return out, nil
}

// CachedMatches returns the number of pair-match reports currently cached.
func (r *Registry) CachedMatches() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.matches)
}

// List returns the metadata of every registered schema, sorted by id.
func (r *Registry) List() []Entry {
	r.mu.RLock()
	out := make([]Entry, 0, len(r.schemas))
	for id, cs := range r.schemas {
		out = append(out, EntryOf(id, cs))
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Result is one corpus-search hit: a registered schema ranked against the
// query by full QoM, with the prefilter overlap that admitted it.
type Result struct {
	// ID is the schema's registry key.
	ID string `json:"id"`
	// Score is the query→schema tree QoM.
	Score float64 `json:"score"`
	// Overlap is the prefilter vocabulary overlap in [0,1].
	Overlap float64 `json:"overlap"`
	// Correspondences are the element mappings found for this schema.
	Correspondences []qmatch.Correspondence `json:"correspondences"`
}

// SearchStats reports how one corpus search spent its time: the corpus
// size, how many candidates survived the prefilter, and the wall time of
// the prefilter and full-rank stages (the service renders these as
// "prefilter"/"pairtable"-style trace spans).
type SearchStats struct {
	Corpus      int   `json:"corpus"`
	Candidates  int   `json:"candidates"`
	PrefilterNs int64 `json:"prefilterNs"`
	RankNs      int64 `json:"rankNs"`
}

// Search ranks the registered corpus against a query schema: the
// vocabulary-overlap prefilter selects the k most promising candidates
// (k <= 0 considers every schema), and only those pay for a full QoM match
// through the engine. Results arrive sorted by descending QoM; because
// the prefilter only selects candidates and the order comes from the full
// match, k >= Len() reproduces the exhaustive ranking exactly. The corpus
// is snapshotted at entry; concurrent Put/Delete affect later searches
// only.
func (r *Registry) Search(ctx context.Context, e *qmatch.Engine, query *qmatch.CompiledSchema, k int) ([]Result, SearchStats, error) {
	r.mu.RLock()
	ids := make([]string, 0, len(r.schemas))
	for id := range r.schemas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	corpus := make([]*qmatch.CompiledSchema, len(ids))
	for i, id := range ids {
		corpus[i] = r.schemas[id]
	}
	r.mu.RUnlock()

	stats := SearchStats{Corpus: len(corpus)}
	start := time.Now()
	keep := qmatch.PrefilterTopK(query, corpus, k)
	stats.PrefilterNs = time.Since(start).Nanoseconds()
	stats.Candidates = len(keep)
	sort.Ints(keep)
	sub := make([]*qmatch.CompiledSchema, len(keep))
	for i, ci := range keep {
		sub[i] = corpus[ci]
	}

	start = time.Now()
	ranked, err := e.RankCompiled(ctx, query, sub, 0)
	stats.RankNs = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, err
	}
	out := make([]Result, len(ranked))
	for i, rk := range ranked {
		ci := keep[rk.Index]
		out[i] = Result{
			ID:              ids[ci],
			Score:           rk.Score,
			Overlap:         query.Overlap(corpus[ci]),
			Correspondences: rk.Correspondences,
		}
	}
	return out, stats, nil
}
