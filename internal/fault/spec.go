package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpecs parses the textual fault schedule accepted by cmd/orca's
// -faults flag and the ORCA_FAULTS environment variable. The grammar is a
// comma-separated list of armed points:
//
//	spec     = point ":" action *( ":" option )
//	action   = "error" | "panic" | "delay=" duration
//	option   = "every=" int | "limit=" int | "prob=" float | "seed=" int
//
// Examples:
//
//	memo/insert:error:every=100
//	search/job/exec:panic:limit=1
//	md/provider/fetch:delay=5ms:prob=0.1:seed=42
//
// The serve/* points target the optimizer service (cmd/orcad) around the
// search rather than inside it — admission shedding, transient metadata
// errors feeding the retry machinery, handler panics and handler latency:
//
//	serve/admission/reject:error:prob=0.2:seed=7
//	serve/md/transient-error:error:every=3
//	serve/handler/panic:panic:limit=1
//	serve/handler/slow:delay=50ms:prob=0.5:seed=9
//
// Whitespace around commas is ignored; an empty string yields no specs.
func ParseSpecs(text string) ([]Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	var specs []Spec
	for _, raw := range strings.Split(text, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		s, err := parseOne(raw)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func parseOne(raw string) (Spec, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 2 {
		return Spec{}, fmt.Errorf("fault: spec %q: want <point>:<action>[:opt=val]*", raw)
	}
	point, ok := lookupPoint(parts[0])
	if !ok {
		return Spec{}, fmt.Errorf("fault: spec %q: unknown fault point %q", raw, parts[0])
	}
	s := Spec{Point: point}
	action := parts[1]
	switch {
	case action == "error":
		s.Action = ActError
	case action == "panic":
		s.Action = ActPanic
	case strings.HasPrefix(action, "delay="):
		d, err := time.ParseDuration(action[len("delay="):])
		if err != nil {
			return Spec{}, fmt.Errorf("fault: spec %q: bad delay: %v", raw, err)
		}
		s.Action = ActDelay
		s.Delay = d
	default:
		return Spec{}, fmt.Errorf("fault: spec %q: unknown action %q (want error, panic or delay=<dur>)", raw, action)
	}
	for _, opt := range parts[2:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: spec %q: option %q is not key=value", raw, opt)
		}
		var err error
		switch key {
		case "every":
			s.Every, err = strconv.Atoi(val)
		case "limit":
			s.Limit, err = strconv.Atoi(val)
		case "prob":
			s.Prob, err = strconv.ParseFloat(val, 64)
			if err == nil && (s.Prob < 0 || s.Prob > 1) {
				err = fmt.Errorf("probability %v outside [0, 1]", s.Prob)
			}
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: spec %q: %v", raw, err)
		}
	}
	return s, nil
}

// FormatSpecs renders specs back into the textual grammar parsed by
// ParseSpecs. AMPERe dumps embed this so a replayed failure re-arms the same
// schedule.
func FormatSpecs(specs []Spec) string {
	var b strings.Builder
	for i, s := range specs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Point.name)
		b.WriteByte(':')
		if s.Action == ActDelay {
			b.WriteString("delay=")
			b.WriteString(s.Delay.String())
		} else {
			b.WriteString(s.Action.String())
		}
		if s.Every > 0 {
			fmt.Fprintf(&b, ":every=%d", s.Every)
		}
		if s.Limit > 0 {
			fmt.Fprintf(&b, ":limit=%d", s.Limit)
		}
		if s.Prob > 0 {
			fmt.Fprintf(&b, ":prob=%g", s.Prob)
		}
		if s.Seed != 0 {
			fmt.Fprintf(&b, ":seed=%d", s.Seed)
		}
	}
	return b.String()
}
