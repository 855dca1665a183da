package qmatch

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"qmatch/internal/core"
	"qmatch/internal/lingo"
)

// Option configures an Engine (and therefore a Match or QoM call, which
// run on a throwaway Engine).
type Option func(*config)

// Algorithm selects which matcher a Match call runs.
type Algorithm string

// The three algorithms of the paper's evaluation, plus the CUPID
// TreeMatch the paper compares against in its ongoing work.
const (
	Hybrid     Algorithm = "hybrid"
	Linguistic Algorithm = "linguistic"
	Structural Algorithm = "structural"
	Cupid      Algorithm = "cupid"
)

// ParseAlgorithm parses an algorithm name, case-insensitively and ignoring
// surrounding whitespace. It is the one place algorithm names are decoded —
// JSON configs and the command-line tools all resolve names through it.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(strings.ToLower(strings.TrimSpace(s))); a {
	case Hybrid, Linguistic, Structural, Cupid:
		return a, nil
	default:
		return "", fmt.Errorf("qmatch: unknown algorithm %q (want %s, %s, %s or %s)",
			s, Hybrid, Linguistic, Structural, Cupid)
	}
}

// Weights are the axis weights of the QoM model (label, properties, level,
// children). Weights are normalized to sum to 1 when a match runs; at
// least one component must be positive and none may be negative — Engine
// construction rejects all-zero or negative weights.
type Weights struct {
	Label      float64
	Properties float64
	Level      float64
	Children   float64
}

// validate rejects weight vectors the QoM model cannot interpret: a
// negative component, or all components zero (nothing to normalize).
func (w Weights) validate() error {
	if w.Label < 0 || w.Properties < 0 || w.Level < 0 || w.Children < 0 {
		return fmt.Errorf("qmatch: invalid weights %+v: negative component", w)
	}
	if w.Label == 0 && w.Properties == 0 && w.Level == 0 && w.Children == 0 {
		return fmt.Errorf("qmatch: invalid weights: all components zero")
	}
	return nil
}

// Thesaurus collects custom linguistic relations to merge on top of the
// built-in domain thesaurus (or to replace it, see WithoutBuiltinThesaurus).
type Thesaurus struct {
	inner *lingo.Thesaurus
}

// NewThesaurus returns an empty custom thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{inner: lingo.NewThesaurus()}
}

// AddSynonym records two labels as synonyms (an exact label match).
func (t *Thesaurus) AddSynonym(a, b string) { t.inner.AddSynonym(a, b) }

// AddRelated records two labels as semantically related (a relaxed match).
func (t *Thesaurus) AddRelated(a, b string) { t.inner.AddRelated(a, b) }

// AddHypernym records general as a generalization of specific (relaxed).
func (t *Thesaurus) AddHypernym(general, specific string) {
	t.inner.AddHypernym(general, specific)
}

// AddAcronym records short as an acronym of long (relaxed).
func (t *Thesaurus) AddAcronym(short, long string) { t.inner.AddAcronym(short, long) }

// LoadThesaurus reads relations from the tab-separated format
//
//	relation <TAB> term-a <TAB> term-b
//
// with relation one of synonym, related, acronym or hypernym; '#' lines
// are comments. See internal/lingo.LoadThesaurus.
func LoadThesaurus(r io.Reader) (*Thesaurus, error) {
	inner, err := lingo.LoadThesaurus(r)
	if err != nil {
		return nil, err
	}
	return &Thesaurus{inner: inner}, nil
}

// LoadThesaurusFile is LoadThesaurus over a file path.
func LoadThesaurusFile(path string) (*Thesaurus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qmatch: %w", err)
	}
	defer f.Close()
	return LoadThesaurus(f)
}

type config struct {
	alg                Algorithm
	weights            *Weights
	childThreshold     *float64
	selectionThreshold *float64
	rematchState       bool
	custom             *Thesaurus
	noBuiltin          bool
	parallelism        int
	logger             *slog.Logger
	obsMetrics         bool
	obsTracing         bool
}

func newConfig() *config {
	return &config{alg: Hybrid}
}

// validate checks the resolved option set; NewEngine surfaces the error,
// Match and friends panic with it.
func (c *config) validate() error {
	if _, err := ParseAlgorithm(string(c.alg)); err != nil {
		return err
	}
	if c.weights != nil {
		if err := c.weights.validate(); err != nil {
			return err
		}
	}
	if c.childThreshold != nil && (*c.childThreshold < 0 || *c.childThreshold > 1) {
		return fmt.Errorf("qmatch: child threshold %v outside [0,1]", *c.childThreshold)
	}
	if c.selectionThreshold != nil && (*c.selectionThreshold < 0 || *c.selectionThreshold > 1) {
		return fmt.Errorf("qmatch: selection threshold %v outside [0,1]", *c.selectionThreshold)
	}
	if c.parallelism < 0 {
		return fmt.Errorf("qmatch: negative parallelism %d", c.parallelism)
	}
	return nil
}

// WithAlgorithm selects the matcher: Hybrid (default), Linguistic,
// Structural or Cupid.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) { c.alg = a }
}

// WithWeights overrides the QoM axis weights (hybrid algorithm only).
// Weights are normalized to sum to 1. A weight vector with a negative
// component, or with every component zero, is rejected when the Engine is
// built (NewEngine returns the error; Match panics with it).
func WithWeights(w Weights) Option {
	return func(c *config) { c.weights = &w }
}

// WithParallelism bounds the worker pool an Engine uses: the inner QoM
// pair-table computation of a single large match, and the fan-out of
// MatchAll and Rank across schema pairs, together never exceed n workers.
// 0 (the default) derives the bound from GOMAXPROCS; 1 forces fully
// sequential matching; negative values are rejected at Engine
// construction.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithChildThreshold overrides the Fig. 3 threshold gating which child
// matches count toward the children axis (hybrid algorithm only).
func WithChildThreshold(v float64) Option {
	return func(c *config) { c.childThreshold = &v }
}

// WithSelectionThreshold overrides the minimum score for a pair to be
// reported as a correspondence.
func WithSelectionThreshold(v float64) Option {
	return func(c *config) { c.selectionThreshold = &v }
}

// Observer bundles the Engine's opt-in instrumentation. The zero value
// disables everything — an Engine without an observer pays only nil-checks
// on the match path (zero extra allocations, see the allocation gate in
// the test suite).
type Observer struct {
	// Logger receives structured match-lifecycle events (match complete,
	// MatchAll batch summaries, cancellations) via log/slog. Nil disables
	// logging.
	Logger *slog.Logger
	// Metrics enables per-match collection into the Engine's registry:
	// match counts, duration histograms, pair-table cell counters and
	// per-phase wall time. Read the registry with Engine.WriteMetrics
	// (Prometheus text), Engine.WriteMetricsJSON, or expvar via
	// Engine.PublishExpvar.
	Metrics bool
	// Tracing attaches a MatchTrace — per-phase spans with wall time,
	// node/cell counts and worker parallelism — to every Report.
	Tracing bool
}

// WithObserver installs the Engine's instrumentation: structured logging,
// metrics collection, and per-match phase tracing (see Observer). The
// default is everything off.
func WithObserver(o Observer) Option {
	return func(c *config) {
		c.logger = o.Logger
		c.obsMetrics = o.Metrics
		c.obsTracing = o.Tracing
	}
}

// WithThesaurus merges custom linguistic relations on top of the built-in
// domain thesaurus.
func WithThesaurus(t *Thesaurus) Option {
	return func(c *config) { c.custom = t }
}

// WithoutBuiltinThesaurus drops the built-in domain thesaurus, leaving only
// relations added via WithThesaurus (plus string similarity and
// abbreviation detection).
func WithoutBuiltinThesaurus() Option {
	return func(c *config) { c.noBuiltin = true }
}

// thesaurus resolves the effective thesaurus for this configuration. The
// result is freshly merged and owned by the caller; an Engine merges it
// once at construction and shares it read-only afterwards.
func (c *config) thesaurus() *lingo.Thesaurus {
	t := lingo.NewThesaurus()
	if !c.noBuiltin {
		t.Merge(lingo.Default())
	}
	if c.custom != nil {
		t.Merge(c.custom.inner)
	}
	return t
}

// axisWeights resolves the configured hybrid axis weights.
func (c *config) axisWeights() core.AxisWeights {
	if c.weights == nil {
		return core.DefaultWeights()
	}
	return core.AxisWeights{
		Label: c.weights.Label, Properties: c.weights.Properties,
		Level: c.weights.Level, Children: c.weights.Children,
	}
}
