package exp

import (
	"fmt"

	"repro/internal/em3d"
	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "EM3D: µs per edge vs fraction of remote edges, six versions",
		Paper: "32 PEs, 16,000 nodes of degree 20; all-local optimized cost 0.37 µs/edge (5.5 MFLOPS/PE); at higher remote fractions Simple ≫ Ghost > Get > Put > Bulk.",
		Run:   runFig9,
	})
}

// Fig9Scale describes one EM3D sweep configuration.
type Fig9Scale struct {
	PEs        int
	NodesPerPE int
	Degree     int
	Iters      int
	Fractions  []float64
}

// QuickScale keeps the sweep around tens of seconds.
func QuickScale() Fig9Scale {
	return Fig9Scale{PEs: 8, NodesPerPE: 120, Degree: 8, Iters: 2,
		Fractions: []float64{0, 0.05, 0.10, 0.20, 0.40}}
}

// PaperScale is the exact Figure 9 workload (minutes of simulation).
func PaperScale() Fig9Scale {
	return Fig9Scale{PEs: 32, NodesPerPE: 500, Degree: 20, Iters: 3,
		Fractions: []float64{0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50}}
}

func runFig9(o Options) []report.Table {
	scale := PaperScale()
	if o.Quick {
		scale = QuickScale()
	}
	return []report.Table{Fig9Table(scale)}
}

// Fig9Table runs the EM3D sweep at the given scale.
func Fig9Table(scale Fig9Scale) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("Figure 9: EM3D µs/edge (%d PEs, %d nodes/PE, degree %d)", scale.PEs, scale.NodesPerPE, scale.Degree),
		Headers: []string{"% remote"},
	}
	for _, v := range em3d.Versions {
		t.Headers = append(t.Headers, v.String())
	}
	nv := len(em3d.Versions)
	cells := sim.Points(len(scale.Fractions)*nv, func(i int) string {
		cfg := em3d.Config{
			NodesPerPE: scale.NodesPerPE,
			Degree:     scale.Degree,
			RemoteFrac: scale.Fractions[i/nv],
			Seed:       42,
			Iters:      scale.Iters,
		}
		return em3dCell(scale.PEs, cfg, em3d.Versions[i%nv])
	})
	for fi, f := range scale.Fractions {
		row := []string{fmt.Sprintf("%.0f", f*100)}
		t.Rows = append(t.Rows, append(row, cells[fi*nv:(fi+1)*nv]...))
	}
	t.Note = "values are µs per edge per processor; (!) marks a failed numerical validation"
	return t
}

// em3dCell runs one EM3D version on a fresh machine and formats its
// µs/edge, with (!) on a failed validation.
func em3dCell(pes int, cfg em3d.Config, v em3d.Version) string {
	m := em3d.NewMachine(pes)
	defer m.Eng.Shutdown()
	res := em3d.Run(m, cfg, v, em3d.DefaultKnobs())
	cell := fmt.Sprintf("%.3f", res.USPerEdge)
	if !res.Validated {
		cell += "(!)"
	}
	return cell
}
