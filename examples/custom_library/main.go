// Custom library: tune a hand-written statistical library through the
// public API. This is the path a user with their own characterization
// data follows: write (or load) an LVF-style Liberty file with
// ocv_sigma_cell_* tables, parse it, and run any tuning method on it.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"

	"stdcelltune"
	"stdcelltune/internal/statlib"
)

// A miniature two-cell statistical library in LVF-flavoured Liberty: an
// inverter in two drive strengths. Sigma grows with load and slew, and
// the bigger drive is flatter — the structure real characterization
// produces.
const customLib = `
library (my_stat_lib) {
  time_unit : "1ns";
  capacitive_load_unit (1, pf);
  cell (MYINV_1) {
    area : 1.0;
    drive_strength : 1;
    pin (A) { direction : input; capacitance : 0.0012; }
    pin (Y) {
      direction : output;
      max_capacitance : 0.04;
      timing () {
        related_pin : "A";
        cell_rise (t) {
          index_1 ("0.005, 0.02, 0.04");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.030, 0.035, 0.060", \
                  "0.060, 0.070, 0.110", \
                  "0.100, 0.120, 0.180");
        }
        cell_fall (t) {
          index_1 ("0.005, 0.02, 0.04");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.028, 0.033, 0.057", \
                  "0.057, 0.066, 0.104", \
                  "0.095, 0.114, 0.171");
        }
        ocv_sigma_cell_rise (t) {
          index_1 ("0.005, 0.02, 0.04");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.002, 0.003, 0.009", \
                  "0.004, 0.006, 0.016", \
                  "0.008, 0.012, 0.030");
        }
        ocv_sigma_cell_fall (t) {
          index_1 ("0.005, 0.02, 0.04");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.002, 0.003, 0.008", \
                  "0.004, 0.006, 0.015", \
                  "0.007, 0.011, 0.028");
        }
      }
    }
  }
  cell (MYINV_4) {
    area : 2.2;
    drive_strength : 4;
    pin (A) { direction : input; capacitance : 0.0048; }
    pin (Y) {
      direction : output;
      max_capacitance : 0.16;
      timing () {
        related_pin : "A";
        cell_rise (t) {
          index_1 ("0.02, 0.08, 0.16");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.030, 0.035, 0.060", \
                  "0.060, 0.070, 0.110", \
                  "0.100, 0.120, 0.180");
        }
        cell_fall (t) {
          index_1 ("0.02, 0.08, 0.16");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.028, 0.033, 0.057", \
                  "0.057, 0.066, 0.104", \
                  "0.095, 0.114, 0.171");
        }
        ocv_sigma_cell_rise (t) {
          index_1 ("0.02, 0.08, 0.16");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.001, 0.0015, 0.004", \
                  "0.002, 0.0030, 0.008", \
                  "0.004, 0.0060, 0.015");
        }
        ocv_sigma_cell_fall (t) {
          index_1 ("0.02, 0.08, 0.16");
          index_2 ("0.01, 0.1, 0.5");
          values ("0.001, 0.0014, 0.004", \
                  "0.002, 0.0028, 0.007", \
                  "0.004, 0.0055, 0.014");
        }
      }
    }
  }
}
`

func main() {
	log.SetFlags(0)
	lib, err := stdcelltune.ParseLiberty(customLib)
	if err != nil {
		log.Fatal(err)
	}
	stat, err := statlib.FromLiberty(lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded statistical library %q with %d cells\n\n", lib.Name, len(stat.Cells))

	for _, bound := range []float64{0.02, 0.008, 0.003} {
		windows, rep, err := stdcelltune.TuneCtx(context.Background(), stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: bound})
		fmt.Printf("sigma ceiling %.3f ns:\n", bound)
		if errors.Is(err, stdcelltune.ErrWindowInfeasible) {
			fmt.Printf("  every pin EXCLUDED (no usable region)\n%s\n", strings.Repeat("-", 60))
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range rep.Pins {
			w, _ := windows.Window(p.Cell, p.Pin)
			status := fmt.Sprintf("keep %.0f%% of LUT, window %s", 100*p.Retained, w)
			if p.Excluded {
				status = "EXCLUDED (no usable region)"
			}
			fmt.Printf("  %-10s %s\n", p.Cell+"/"+p.Pin, status)
		}
		fmt.Println(strings.Repeat("-", 60))
	}
	fmt.Println("the high-drive cell keeps more of its LUT at every ceiling (Pelgrom)")
}
