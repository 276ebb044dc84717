// Package faultpointfix seeds fault-point misuse that no longer compiles:
// fault.Inject and fault.Spec take a fault.Point, which only package fault
// can construct, so every line carrying a want comment is a type error.
package faultpointfix

import "orca/internal/fault"

const pointGood = "memo/insert"

func okInject() error {
	if err := fault.Inject(fault.PointMemoInsert); err != nil {
		return err
	}
	return fault.Default.Inject(fault.PointCoreExtract)
}

func badInject(dynamic string) {
	_ = fault.Inject("memo/insert")                  // want `cannot use "memo/insert"`
	_ = fault.Inject(pointGood)                      // want `cannot use pointGood`
	_ = fault.Inject(dynamic)                        // want `cannot use dynamic`
	_ = fault.Default.Inject("dxl/parse")            // want `cannot use "dxl/parse"`
	_ = fault.Spec{Point: "no/such/point"}           // want `cannot use "no/such/point"`
	_ = fault.Inject(fault.Point{name: "fix/adhoc"}) // want `unexported field name`
}
