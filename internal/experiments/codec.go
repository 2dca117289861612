package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/topology"
)

// A scenario's text form is its encoding/json document: the Go field
// names as keys, a topology class and a switch model by name, every
// other field as its JSON value.  Reports embed the scenario they ran
// in this form, and DecodeScenario reads it back.

// FieldError is a refused scenario.  Fields are dotted paths into
// Scenario ("HorizonBT", "Fabric.ISLIPIters"): the refused field
// first, then any field it conflicts with.
type FieldError struct {
	Fields []string
	Reason string
}

func (e *FieldError) Error() string {
	return strings.Join(e.Fields, ", ") + ": " + e.Reason
}

// refuse is the refusal of fields, a comma-separated list of paths.
func refuse(fields, format string, args ...any) *FieldError {
	return &FieldError{Fields: strings.Split(fields, ", "), Reason: fmt.Sprintf(format, args...)}
}

// DecodeScenario decodes the JSON scenario document data over base: a
// field the document names replaces base's value, and one it leaves out
// keeps it, so a patch such as {"Fabric":{"ISLIPIters":1}} is a whole
// document.  Keys are Scenario's field names, spelled exactly.  An
// unknown field, a value of the wrong type, and a change to a field
// under a path in axis (set at every point of the caller's sweep, such
// as "Topology") or, unless reads is nil, under none in reads (read by
// the caller's run) are refused with a *FieldError naming the field.
// The result is not validated.
func DecodeScenario(data []byte, base Scenario, reads []string, axis ...string) (Scenario, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return base, fmt.Errorf("scenario document: %w", err)
	}
	sc := base
	if err := decodeFields(reflect.ValueOf(&sc).Elem(), doc, ""); err != nil {
		return base, err
	}
	var v validator
	walkFields(reflect.ValueOf(sc), "", func(path string, f reflect.Value) {
		same := f.Interface() == fieldAt(base, path).Interface()
		v.check(same || !covered(path, axis), path, "the experiment's axis sets it at every point")
		v.check(same || reads == nil || covered(path, reads), path, "the experiment does not read it")
	})
	if v.err != nil {
		return base, v.err
	}
	return sc, nil
}

// covered reports whether path is one of paths or lies under one.
func covered(path string, paths []string) bool {
	return slices.ContainsFunc(paths, func(p string) bool { return path == p || strings.HasPrefix(path, p+".") })
}

// decodeFields decodes the members of one JSON object into the struct
// v, whose fields' paths start with prefix, in key order so that the
// first refusal is the same on every run.
func decodeFields(v reflect.Value, doc map[string]json.RawMessage, prefix string) error {
	keys := make([]string, 0, len(doc))
	for key := range doc {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		path, raw := prefix+key, doc[key]
		f, ok := v.Type().FieldByName(key)
		if !ok || !f.IsExported() {
			return refuse(path, "unknown field")
		}
		fv := v.FieldByIndex(f.Index)
		var members map[string]json.RawMessage
		if fv.Kind() == reflect.Struct && json.Unmarshal(raw, &members) == nil && members != nil {
			if err := decodeFields(fv, members, path+"."); err != nil {
				return err
			}
			continue
		}
		if err := json.Unmarshal(raw, fv.Addr().Interface()); err != nil {
			return refuse(path, "%v", err)
		}
	}
	return nil
}

// fieldAt returns the field of sc at a dotted path.
func fieldAt(sc Scenario, path string) reflect.Value {
	v := reflect.ValueOf(sc)
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// Validate refuses a scenario no run can mean with a *FieldError
// naming the field.  A refusal that names a field under a path in axis
// is skipped: the caller's sweep sets that field at every point, and
// build validates each point.
func (sc Scenario) Validate(axis ...string) error {
	v := validator{axis: axis}
	// Every count, length, rate and time is non-negative, and every
	// fault rate a probability; seeds take any value.
	walkFields(reflect.ValueOf(sc), "", func(path string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			v.check(f.Int() >= 0 || strings.HasSuffix(path, "Seed"), path, "%d is negative", f.Int())
		case reflect.Float64:
			v.check(f.Float() >= 0 && !math.IsInf(f.Float(), 1), path, "%g out of range [0, +Inf)", f.Float())
			v.check(f.Float() <= 1 || !strings.HasPrefix(path, "Faults."), path, "probability %g above 1", f.Float())
		}
	})

	v.check(sc.Inband || !sc.SMPFaults, "SMPFaults, Inband", "SMP faults need the in-band programmer")
	v.check(sc.Inband || sc.FailAtBT == 0, "FailAtBT, Inband", "failure recovery needs the in-band programmer")
	v.check(sc.Fabric.FailoverEscape || sc.FailAtBT == 0, "FailAtBT, Fabric.FailoverEscape",
		"failure recovery needs the escape weight on every data VL")
	_, err := faults.ParseFailureSchedule(sc.Failures)
	v.check(err == nil, "Failures", "%v", err)
	v.check(sc.Failures == "" || sc.FailAtBT > 0, "Failures, FailAtBT", "a failure schedule needs the recovery a positive FailAtBT enables")

	t := sc.Topology
	switches, shape := 0, "Topology"
	switch t.Class {
	case topology.Irregular:
		shape = "Topology.Switches"
		if v.check(t.Switches >= 2 && t.Switches <= topology.MaxIrregularSwitches, shape,
			"network size %d outside [2, %d]", t.Switches, topology.MaxIrregularSwitches) {
			switches = t.Switches
		}
	case topology.FatTree:
		shape = "Topology.K"
		l, err := topology.NewFatTreeLayout(t.K)
		if v.check(err == nil, shape, "%v", err) {
			switches = l.NumSwitches()
		}
	case topology.Dragonfly:
		shape = "Topology.A, Topology.P, Topology.H"
		l, err := topology.NewDragonflyLayout(t.A, t.P, t.H)
		if v.check(err == nil, shape, "%v", err) {
			switches = l.NumSwitches()
		}
	default:
		v.check(false, "Topology.Class", "unknown class %d", int(t.Class))
	}

	f := sc.Fabric
	v.check(f.Switches == 0, "Fabric.Switches", "build sets it from the topology")
	v.check(f.Seed == 0, "Fabric.Seed", "build sets it to Seed")
	v.check(f.PayloadBytes >= 1 && f.PayloadBytes <= 4096, "Fabric.PayloadBytes", "%d outside the IBA MTU range [1, 4096]", f.PayloadBytes)
	v.check(f.HostQueueCap >= 1, "Fabric.HostQueueCap", "a host queue of %d packets holds nothing", f.HostQueueCap)
	v.check(f.DataVLs == 0 || f.DataVLs >= 3 && f.DataVLs <= 15, "Fabric.DataVLs", "%d outside [3, 15] (0 keeps all 15)", f.DataVLs)
	v.check(f.CrossbarSpeedup >= 1, "Fabric.CrossbarSpeedup", "a speedup of %d moves nothing", f.CrossbarSpeedup)
	v.check(f.SwitchModel >= fabric.ModelWRR && f.SwitchModel <= fabric.ModelVOQMWM, "Fabric.SwitchModel", "unknown model %d", int(f.SwitchModel))
	if switches > 0 {
		v.check(f.Shards <= switches, "Fabric.Shards, "+shape, "%d shards for %d switches: %v", f.Shards, switches, topology.ErrShardCount)
	}
	v.check(sc.Trace == 0 || f.Shards <= 1, "Trace, Fabric.Shards",
		"the trace records one engine's arbitration decisions and cannot run with %d shards", f.Shards)

	v.check(sc.Load <= admission.MaxLoadFactor, "Load", "%g out of range (0, %g]", sc.Load, admission.MaxLoadFactor)
	v.check(sc.Faults.Seed == 0, "Faults.Seed", "build sets it to Seed")
	return v.err
}

// validator keeps the first refusal of Validate that no axis path
// covers.
type validator struct {
	axis []string
	err  error
}

// check refuses fields (comma-separated paths) with the formatted
// reason unless ok, and reports ok.
func (v *validator) check(ok bool, fields, format string, args ...any) bool {
	if ok || v.err != nil {
		return ok
	}
	e := refuse(fields, format, args...)
	if !slices.ContainsFunc(e.Fields, func(field string) bool { return covered(field, v.axis) }) {
		v.err = e
	}
	return ok
}

// walkFields calls visit on every non-struct field under the struct v,
// depth first, with its dotted path.
func walkFields(v reflect.Value, prefix string, visit func(path string, f reflect.Value)) {
	for i := range v.NumField() {
		path, f := prefix+v.Type().Field(i).Name, v.Field(i)
		if f.Kind() == reflect.Struct {
			walkFields(f, path+".", visit)
		} else {
			visit(path, f)
		}
	}
}
