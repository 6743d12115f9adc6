package experiment

import "seedscan/internal/experiment/grid"

// Experiment grids run many independent TGA runs; each run is
// deterministic in isolation (its own generator, deterministic scanning
// and dealiasing), so running them concurrently changes wall-clock time
// and nothing else. Shared state (the scanner's atomic counters, the
// output dealiaser's verdict cache, the telemetry registry, the Env's
// per-key singleflight treatment caches) is concurrency-safe, so
// harnesses fan out without resolving seed lists first.

// Workers returns the experiment fan-out width: EnvConfig.Workers if
// set, else grid.DefaultWorkers.
func (e *Env) Workers() int {
	if e.Cfg.Workers > 0 {
		return e.Cfg.Workers
	}
	return grid.DefaultWorkers()
}
