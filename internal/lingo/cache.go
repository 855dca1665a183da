package lingo

// ScoreCache is an inert placeholder: the similarity kernel scores every
// label pair of a match afresh, and nothing memoizes label scores across
// matches. It is kept only because benchmark/replay.go still assigns
// NewScoreCache(0) to core.Matcher.Scores; it goes when that file does.
type ScoreCache struct{}

// NewScoreCache returns nil. It is kept only for benchmark/replay.go.
func NewScoreCache(int) *ScoreCache { return nil }
