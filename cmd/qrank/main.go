// Command qrank ranks a corpus of schema files against a query schema —
// the paper's motivating scenario (§1): locate, among heterogeneous web
// documents, those whose schemas best match a query. Corpus schemas are
// matched concurrently.
//
// Usage:
//
//	qrank [flags] QUERY FILE...
//	qrank [flags] QUERY -dir DIRECTORY
//
// QUERY and every corpus entry are schema files: .xsd (XML Schema), .dtd
// (DTD), .xml (schema inferred from the instance document), .json (JSON
// Schema) or .sql/.ddl (SQL CREATE TABLE statements).
//
// Flags:
//
//	-dir DIRECTORY    rank every .xsd/.dtd/.xml/.json/.sql/.ddl file
//	                  under the directory
//	-algorithm NAME   hybrid (default), linguistic, structural or cupid
//	-top N            print only the N best entries (default: all)
//	-maps             also print the best entry's correspondences
//	-trace            re-match the best entry with phase tracing on and
//	                  print its pipeline breakdown
//	-trace-out FILE   write the best entry's trace as Chrome trace-event
//	                  JSON to FILE (implies -trace; load in Perfetto)
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"qmatch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qrank:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fsFlags := flag.NewFlagSet("qrank", flag.ContinueOnError)
	dir := fsFlags.String("dir", "", "rank every schema file under this directory")
	algorithm := fsFlags.String("algorithm", "hybrid", "matcher: hybrid, linguistic, structural or cupid")
	top := fsFlags.Int("top", 0, "print only the N best entries")
	maps := fsFlags.Bool("maps", false, "print the best entry's correspondences")
	trace := fsFlags.Bool("trace", false, "print the best entry's pipeline phase breakdown")
	traceOut := fsFlags.String("trace-out", "", "write the best entry's trace as Chrome trace events to FILE (implies -trace)")
	if err := fsFlags.Parse(args); err != nil {
		return err
	}
	if fsFlags.NArg() < 1 {
		return fmt.Errorf("want a query schema file")
	}
	queryPath := fsFlags.Arg(0)
	paths := fsFlags.Args()[1:]
	if *dir != "" {
		found, err := collectSchemas(*dir)
		if err != nil {
			return err
		}
		paths = append(paths, found...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("no corpus schemas given (list files or use -dir)")
	}

	query, err := qmatch.LoadSchema(queryPath)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	var corpus []*qmatch.Schema
	var names []string
	for _, p := range paths {
		s, err := qmatch.LoadSchema(p)
		if err != nil {
			return err
		}
		corpus = append(corpus, s)
		names = append(names, p)
	}

	alg, err := qmatch.ParseAlgorithm(*algorithm)
	if err != nil {
		return err
	}
	eng, err := qmatch.NewEngine(qmatch.WithAlgorithm(alg))
	if err != nil {
		return err
	}

	ranked := eng.Rank(query, corpus)
	limit := len(ranked)
	if *top > 0 && *top < limit {
		limit = *top
	}
	fmt.Fprintf(out, "query: %s (%s, %d elements)\n\n", queryPath, query.Name(), query.Size())
	fmt.Fprintf(out, "%-4s %8s %6s  %s\n", "rank", "score", "#maps", "schema")
	for i := 0; i < limit; i++ {
		r := ranked[i]
		fmt.Fprintf(out, "%-4d %8.3f %6d  %s (%s)\n",
			i+1, r.Score, len(r.Correspondences), names[r.Index], r.Schema.Name())
	}
	if *maps && len(ranked) > 0 {
		best := ranked[0]
		fmt.Fprintf(out, "\nbest match %s — correspondences:\n", names[best.Index])
		for _, c := range best.Correspondences {
			fmt.Fprintf(out, "  %s\n", c)
		}
	}
	if *traceOut != "" {
		*trace = true
	}
	if *trace && len(ranked) > 0 {
		// Rank itself runs untraced (tracing every corpus entry would
		// skew the ranking wall time); re-match just the winner with a
		// tracing engine to show where its time goes.
		best := ranked[0]
		traced, err := qmatch.NewEngine(qmatch.WithAlgorithm(alg),
			qmatch.WithObserver(qmatch.Observer{Tracing: true}))
		if err != nil {
			return err
		}
		report := traced.Match(query, best.Schema)
		fmt.Fprintf(out, "\nbest match %s — %s", names[best.Index], report.Trace.Format())
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := report.Trace.WriteTraceEvents(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "trace events written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
		}
	}
	return nil
}

// collectSchemas lists the files under root whose extension names a
// schema format (qmatch.FormatOf), sorted for determinism.
func collectSchemas(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if qmatch.FormatOf(path) != qmatch.FormatAuto {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
