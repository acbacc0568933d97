package charexp

import "repro/internal/fleet"

// Options is the one declaration of the sweep family's parameters: the
// json tags are the serving layer's request fields, the flag and usage
// tags are cmd/simra-char's flags, and Config turns them into the
// runner configuration both front ends use, so a served sweep is
// byte-identical to the CLI's output for the same parameters.
type Options struct {
	// Figure is a figure/table id (see CheckFigure); the CLI also takes
	// "all" for every figure in FigureIDs order.
	Figure string `json:"figure" flag:"fig" usage:"figure to reproduce: all, table1, modules, 3, 4a, 4b, 5, 6, 7, 8, 9, 10, 11, 12a, 12b, 14, 15, 16, 17"`
	// Full selects the full 18-module Table-2 fleet instead of the
	// representative subset.
	Full bool `json:"full,omitempty" flag:"full" usage:"use the full 18-module fleet of Table 1/2 (slow)"`
	// Trials, Groups, Banks, Columns and Seed override the reduced-scale
	// defaults of DefaultConfig (0 = default; 512 columns).
	Trials  int    `json:"trials,omitempty" flag:"trials" usage:"trials per row group (0 = default)"`
	Groups  int    `json:"groups,omitempty" flag:"groups" usage:"row groups per subarray (0 = default)"`
	Banks   int    `json:"banks,omitempty" flag:"banks" usage:"banks sampled per module (0 = default)"`
	Columns int    `json:"cols,omitempty" flag:"cols" usage:"simulated columns per subarray (0 = default)"`
	Seed    uint64 `json:"seed,omitempty" flag:"seed" usage:"experiment seed (0 = default)"`
	// Sets bounds the Fig. 15 Monte-Carlo sampling.
	Sets int `json:"sets,omitempty" flag:"sets" usage:"Monte-Carlo samples per Fig. 15 cell"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty" flag:"format" usage:"output format: text, csv, or columnar"`
	// Workers bounds the engine parallelism (0 = GOMAXPROCS). It never
	// affects result bytes, so it is not a request field.
	Workers int `json:"-" flag:"workers" usage:"parallel sweep shards (0 = GOMAXPROCS, 1 = sequential; results are identical)"`
}

// Config builds the runner configuration for the options: DefaultConfig
// with every non-zero override applied. Figure, Sets and Format select
// what RunFigure renders and are not part of it.
func (o Options) Config() Config {
	cfg := DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 512
	if o.Columns > 0 {
		fc.Columns = o.Columns
	}
	if o.Full {
		cfg.Fleet = fleet.Modules(fc)
	} else {
		cfg.Fleet = fleet.Representative(fc)
	}
	if o.Trials > 0 {
		cfg.Trials = o.Trials
	}
	if o.Groups > 0 {
		cfg.GroupsPerSubarray = o.Groups
	}
	if o.Banks > 0 {
		cfg.Banks = o.Banks
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Engine.Workers = o.Workers
	return cfg
}
