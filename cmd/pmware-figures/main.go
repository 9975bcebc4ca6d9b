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
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/study"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 1, 2, study, ablations, all")
	participants := flag.Int("participants", 16, "study participants (study/ablations)")
	days := flag.Int("days", 14, "study days")
	seed := flag.Int64("seed", 2014, "study seed")
	flag.Parse()

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	model := energy.DefaultModel()
	pmsCfg := core.DefaultConfig("bench")

	figure1 := func() error { return energy.WriteFigure1(os.Stdout, model) }
	figure2 := func() error { return core.WriteFigure2(os.Stdout, model, pmsCfg) }
	studyFn := func() error {
		cfg := study.DefaultConfig()
		cfg.Participants = *participants
		cfg.Days = *days
		cfg.Seed = *seed
		res, err := study.Run(cfg)
		if err != nil {
			return err
		}
		return study.WriteReport(os.Stdout, res)
	}
	ablations := func() error {
		fmt.Println("Ablation 1: triggered sensing vs always-on, building-level requirement")
		triggered := core.SensingPlan(core.GranularityBuilding, core.RouteNone, pmsCfg)
		alwaysGPS := []energy.Load{{Interface: energy.GSM, Interval: pmsCfg.GSMInterval}, {Interface: energy.GPS, Interval: pmsCfg.GSMInterval}}
		alwaysWiFi := []energy.Load{{Interface: energy.GSM, Interval: pmsCfg.GSMInterval}, {Interface: energy.WiFi, Interval: pmsCfg.GSMInterval}}
		fmt.Printf("  %-28s %8.1f h\n", "PMWare triggered sensing", core.PlanBatteryHours(model, triggered))
		fmt.Printf("  %-28s %8.1f h\n", "always-on WiFi @1min", core.PlanBatteryHours(model, alwaysWiFi))
		fmt.Printf("  %-28s %8.1f h\n", "always-on GPS @1min", core.PlanBatteryHours(model, alwaysGPS))

		fmt.Println("\nAblation 2: N isolated app sensing stacks vs one shared PMS (building level)")
		shared := core.PlanBatteryHours(model, core.SensingPlan(core.GranularityBuilding, core.RouteNone, pmsCfg))
		for _, n := range []int{1, 2, 4, 8} {
			iso := core.PlanBatteryHours(model, core.IsolatedAppsPlan(n, core.GranularityBuilding, core.RouteNone, pmsCfg))
			fmt.Printf("  n=%d  isolated %8.1f h   shared %8.1f h   saving %5.1f%%\n",
				n, iso, shared, (1-iso/shared)*100)
		}

		fmt.Println("\nAblation 3: place merge rate per interface pipeline (small study)")
		cfg := study.DefaultConfig()
		cfg.Participants = *participants
		cfg.Days = *days
		cfg.Seed = *seed
		res, err := study.Run(cfg)
		if err != nil {
			return err
		}
		line := func(name string, c, m, d float64, missed int) {
			fmt.Printf("  %-26s correct %6.2f%%  merged %6.2f%%  divided %6.2f%%  missed %d\n",
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

	switch *fig {
	case "1":
		run("Figure 1: power consumption of location interfaces", figure1)
	case "2":
		run("Figure 2: characterization of place-aware applications", figure2)
	case "study":
		run("Section 4: deployment study", studyFn)
	case "ablations":
		run("Design-choice ablations", ablations)
	case "all":
		run("Figure 1: power consumption of location interfaces", figure1)
		run("Figure 2: characterization of place-aware applications", figure2)
		run("Section 4: deployment study", studyFn)
		run("Design-choice ablations", ablations)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q (want 1, 2, study, ablations, all)\n", *fig)
		os.Exit(2)
	}
}
