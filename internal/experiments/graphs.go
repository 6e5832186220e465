package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"os"
)

// WriteCaseGraphs renders the Fig 8 and Fig 12 alarm-graph components as
// Graphviz DOT files through the provided file factory ("fig08_ddos.dot"
// and "fig12_leak.dot"). The case runs are memoized, so calling this after
// the corresponding experiments reuses their results.
func WriteCaseGraphs(scale Scale, create func(name string) (*os.File, error)) error {
	d, err := runDDoS(scale)
	if err != nil {
		return err
	}
	root := d.Topo.Roots[0]
	anycast := map[netip.Addr]bool{}
	for _, rt := range d.Topo.Roots {
		anycast[rt.Addr] = true
	}
	if err := writeDOT(create, "fig08_ddos.dot", func(w io.Writer) error {
		return d.a.Graph(ddosAttack1Start, ddosAttack1End).WriteDOT(w, root.Addr, anycast)
	}); err != nil {
		return err
	}

	l, err := runLeak(scale)
	if err != nil {
		return err
	}
	return writeDOT(create, "fig12_leak.dot", func(w io.Writer) error {
		return l.a.Graph(leakStart, leakEnd).WriteDOT(w, l.roles.linkA.Near, nil)
	})
}

func writeDOT(create func(string) (*os.File, error), name string, render func(io.Writer) error) error {
	f, err := create(name)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("experiments: rendering %s: %w", name, err)
	}
	return f.Close()
}
