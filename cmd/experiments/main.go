// Command experiments regenerates every table and figure of the paper's
// demonstration (the README "Experiments" index) and prints them as
// text tables. Results are deterministic for a given scale.
//
// Usage:
//
//	experiments [-scale small|medium] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "medium", "dataset scale: small or medium")
	only := flag.String("only", "", "run a single experiment (E1..E14)")
	flag.Parse()

	scale := experiments.Medium
	switch strings.ToLower(*scaleFlag) {
	case "small":
		scale = experiments.Small
	case "medium":
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	env, err := experiments.BuildEnv(scale)
	if err != nil {
		fatal(err)
	}
	type exp struct {
		name string
		fn   func(*experiments.Env) (string, error)
	}
	exps := []exp{
		{"E1", experiments.E1EnumerateIndexes},
		{"E2", experiments.E2EvaluateIndexes},
		{"E3", experiments.E3GeneralizationDAG},
		{"E4", experiments.E4RecommendationAnalysis},
		{"E5", experiments.E5UnseenWorkload},
		{"E6", experiments.E6SearchStrategies},
		{"E7", experiments.E7UpdateCost},
		{"E8", experiments.E8ActualExecution},
		{"E9", experiments.E9CouplingAblation},
		{"E10", experiments.E10InteractionAblation},
		{"E11", experiments.E11AdvisorScalability},
		{"E12", experiments.E12ParallelWhatIf},
		{"E13", experiments.E13RuleAblation},
		{"E14", experiments.E14StrategyPortfolio},
	}
	ran := 0
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.name) {
			continue
		}
		rep, err := e.fn(env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Printf("%s\n%s\n", strings.Repeat("=", 78), rep)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment named %q\n", *only)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
