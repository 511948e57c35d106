package experiments

import (
	"io"

	"refrecon/internal/datagen/corrupt"
	"refrecon/internal/metrics"
	"refrecon/internal/recon"
	"refrecon/internal/schema"
)

// NoiseRow is one point of the noise-robustness sweep: Person F-measure of
// both algorithms on a dataset whose atomic values were corrupted at the
// given rate.
type NoiseRow struct {
	Rate      float64
	IndepDecF float64
	DepGraphF float64
}

// NoiseSweep is an extension experiment beyond the paper's evaluation: it
// corrupts a PIM dataset's attribute values at increasing rates and
// reports how each algorithm's Person F-measure degrades. The hypothesis
// — implied by the paper's argument that association evidence compensates
// for weak attribute evidence — is that DepGraph degrades more gracefully:
// typos hurt string comparators, but co-author and contact structure
// survives them.
func (s *Suite) NoiseSweep(name string, rates []float64) []NoiseRow {
	if len(rates) == 0 {
		rates = []float64{0, 0.1, 0.2, 0.4}
	}
	d := s.PIM(name)
	var out []NoiseRow
	for _, rate := range rates {
		noisy := corrupt.Store(d.Store, 0x5EED, rate, nil)
		personF := func(cfg recon.Config) float64 {
			res, err := recon.New(schema.PIM(), cfg).Reconcile(noisy)
			if err != nil {
				panic(err)
			}
			return metrics.Evaluate(noisy, schema.ClassPerson, res.Partitions[schema.ClassPerson]).F1
		}
		out = append(out, NoiseRow{Rate: rate, IndepDecF: personF(IndepDec()), DepGraphF: personF(DepGraph())})
	}
	return out
}

// FprintNoiseSweep renders the sweep.
func FprintNoiseSweep(w io.Writer, dataset string, rows []NoiseRow) {
	fprintf(w, "Noise robustness (dataset %s, Person F-measure)\n", dataset)
	fprintf(w, "%-12s %12s %12s %12s\n", "CorruptRate", "IndepDec F", "DepGraph F", "Gap")
	for _, r := range rows {
		fprintf(w, "%11.0f%% %12.3f %12.3f %+12.3f\n", 100*r.Rate, r.IndepDecF, r.DepGraphF, r.DepGraphF-r.IndepDecF)
	}
}
