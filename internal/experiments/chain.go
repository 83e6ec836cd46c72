package experiments

import (
	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// chain is the engine a figure runs: a low-level node reading PKT and a
// line of high-level nodes, each reading the one before.
type chain struct {
	*engine.Engine
	low *engine.Node
	// table is the low node's partial-aggregation table, nil when the low
	// node is an operator.
	table *engine.PartialNode
	high  []*engine.Node
}

// stage is one named high-level query of a chain.
type stage struct{ name, src string }

// buildChain compiles lowSrc as node "low" on an engine with a ring of
// ringSize packets (a partial-aggregation table of slots slots when slots
// > 0, else an operator node) and each of high reading the one before,
// in that order, against one sfunlib.Default(seed) registry.
func buildChain(ringSize int, seed uint64, lowSrc string, slots int, high ...stage) (*chain, error) {
	reg := sfunlib.Default(seed)
	e, err := engine.New(ringSize)
	if err != nil {
		return nil, err
	}
	c := &chain{Engine: e}
	plan, err := compile(lowSrc, trace.Schema(), reg)
	if err != nil {
		return nil, err
	}
	if slots > 0 {
		if c.table, err = e.AddLowLevelPartialAgg("low", plan, slots); err != nil {
			return nil, err
		}
		c.low = c.table.Base()
	} else if c.low, err = e.AddLowLevel("low", plan); err != nil {
		return nil, err
	}
	parent := c.low
	for _, s := range high {
		plan, err := compile(s.src, parent.Schema(), reg)
		if err != nil {
			return nil, err
		}
		if parent, err = e.AddHighLevel(s.name, parent, plan); err != nil {
			return nil, err
		}
		c.high = append(c.high, parent)
	}
	return c, nil
}

func compile(src string, in *tuple.Schema, reg *sfun.Registry) (*gsql.Plan, error) {
	q, err := gsql.Parse(src)
	if err != nil {
		return nil, err
	}
	return gsql.Analyze(q, in, reg)
}
