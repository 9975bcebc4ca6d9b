// Command pmware-figures regenerates the paper's figures and evaluation
// numbers as text tables:
//
//	pmware-figures -fig 1       Figure 1: battery duration per location interface
//	pmware-figures -fig 2       Figure 2: place-aware application characterization
//	pmware-figures -fig study   Section 4 deployment study (also: pmware-sim)
//	pmware-figures -fig ablations  triggered-sensing and shared-PMS ablations
//	pmware-figures -fig all     everything
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/study"
)

// errUnknownFig is returned for a -fig value that names no figure.
var errUnknownFig = errors.New("unknown -fig")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUnknownFig) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the chosen figures to
// out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pmware-figures", flag.ExitOnError)
	fig := fs.String("fig", "all", "which figure to regenerate: 1, 2, study, ablations, all")
	participants := fs.Int("participants", 16, "study participants (study/ablations)")
	days := fs.Int("days", 14, "study days")
	seed := fs.Int64("seed", 2014, "study seed")
	fs.Parse(args) // ExitOnError: a bad flag never returns

	model := energy.DefaultModel()
	pmsCfg := core.DefaultConfig("bench")

	// The deployment study and ablation 3 report on one study run.
	var studyRes *study.Result
	runStudy := func() (*study.Result, error) {
		if studyRes != nil {
			return studyRes, nil
		}
		cfg := study.DefaultConfig()
		cfg.Participants = *participants
		cfg.Days = *days
		cfg.Seed = *seed
		res, err := study.Run(cfg)
		studyRes = res
		return res, err
	}

	figure1 := func() error { return energy.WriteFigure1(out, model) }
	figure2 := func() error { return core.WriteFigure2(out, model, pmsCfg) }
	studyFn := func() error {
		res, err := runStudy()
		if err != nil {
			return err
		}
		return study.WriteReport(out, res)
	}
	ablations := func() error {
		fmt.Fprintln(out, "Ablation 1: triggered sensing vs always-on, building-level requirement")
		triggered := core.SensingPlan(core.GranularityBuilding, core.RouteNone, pmsCfg)
		alwaysGPS := []energy.Load{{Interface: energy.GSM, Interval: pmsCfg.GSMInterval}, {Interface: energy.GPS, Interval: pmsCfg.GSMInterval}}
		alwaysWiFi := []energy.Load{{Interface: energy.GSM, Interval: pmsCfg.GSMInterval}, {Interface: energy.WiFi, Interval: pmsCfg.GSMInterval}}
		fmt.Fprintf(out, "  %-28s %8.1f h\n", "PMWare triggered sensing", core.PlanBatteryHours(model, triggered))
		fmt.Fprintf(out, "  %-28s %8.1f h\n", "always-on WiFi @1min", core.PlanBatteryHours(model, alwaysWiFi))
		fmt.Fprintf(out, "  %-28s %8.1f h\n", "always-on GPS @1min", core.PlanBatteryHours(model, alwaysGPS))

		fmt.Fprintln(out, "\nAblation 2: N isolated app sensing stacks vs one shared PMS (building level)")
		shared := core.PlanBatteryHours(model, core.SensingPlan(core.GranularityBuilding, core.RouteNone, pmsCfg))
		for _, n := range []int{1, 2, 4, 8} {
			iso := core.PlanBatteryHours(model, core.IsolatedAppsPlan(n, core.GranularityBuilding, core.RouteNone, pmsCfg))
			fmt.Fprintf(out, "  n=%d  isolated %8.1f h   shared %8.1f h   saving %5.1f%%\n",
				n, iso, shared, (1-iso/shared)*100)
		}

		fmt.Fprintln(out, "\nAblation 3: place merge rate per interface pipeline (small study)")
		res, err := runStudy()
		if err != nil {
			return err
		}
		line := func(name string, c, m, d float64, missed int) {
			fmt.Fprintf(out, "  %-26s correct %6.2f%%  merged %6.2f%%  divided %6.2f%%  missed %d\n",
				name, c*100, m*100, d*100, missed)
		}
		c, m, d := res.GSMOnly.Rates()
		line("GSM only", c, m, d, res.GSMOnly.Missed)
		c, m, d = res.Fused.Rates()
		line("GSM + opportunistic WiFi", c, m, d, res.Fused.Missed)
		c, m, d = res.WiFiOnly.Rates()
		line("WiFi only", c, m, d, res.WiFiOnly.Missed)
		return nil
	}

	ran := false
	for _, s := range []struct {
		name, title string
		fn          func() error
	}{
		{"1", "Figure 1: power consumption of location interfaces", figure1},
		{"2", "Figure 2: characterization of place-aware applications", figure2},
		{"study", "Section 4: deployment study", studyFn},
		{"ablations", "Design-choice ablations", ablations},
	} {
		if *fig != "all" && *fig != s.name {
			continue
		}
		ran = true
		fmt.Fprintf(out, "==== %s ====\n", s.title)
		if err := s.fn(); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("%w %q (want 1, 2, study, ablations, all)", errUnknownFig, *fig)
	}
	return nil
}
