// Command orcavet runs the orca-specific static analyzers over the module:
//
//	go run ./cmd/orcavet [-run name,...] [packages]
//
// It prints one `file:line:col: analyzer: message` line per finding. Exit
// codes are distinct so CI can tell a failed gate from a broken run:
//
//	0  clean — no finding remains after //orcavet:ignore:<analyzer>
//	   suppression
//	1  findings — the gate fired
//	2  internal error — loader/type-check failure or an unknown analyzer;
//	   the findings gate did not run
//
// See internal/analysis for the analyzer suite, the interprocedural facts
// store, and the ignore mechanism.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"orca/internal/analysis"
)

func main() {
	only := flag.String("run", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: orcavet [-run name,...] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the Orca invariant analyzers over the given go list patterns\n")
		fmt.Fprintf(os.Stderr, "(default ./...). Suppress a finding with a //orcavet:ignore:<analyzer>\n")
		fmt.Fprintf(os.Stderr, "<reason> comment on the offending line, or alone on the line above it;\n")
		fmt.Fprintf(os.Stderr, "directives that suppress nothing are themselves reported.\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	suite := analysis.All()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatal(fmt.Errorf("unknown analyzer %q", name))
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader("")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	cfg := analysis.DefaultConfig()
	// Unused-ignore reporting needs the full suite: a directive scoped to an
	// analyzer excluded by -run is legitimately idle.
	cfg.ReportUnusedIgnores = len(suite) == len(analysis.All())
	diags := analysis.RunModule(pkgs, suite, cfg)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "orcavet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "orcavet:", err)
	os.Exit(2)
}
