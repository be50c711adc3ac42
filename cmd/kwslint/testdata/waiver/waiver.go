// Package waiver is kwslint's fixture for directives that name checks: one
// names a check of the suite, and two name checks no analyzer reports.
package waiver

//lint:ignore kwslint/lockflow names an analyzer of the suite
var known = 1

//lint:ignore kwslint/lockcheck names an analyzer that is not in the suite
var retired = 2

//lint:ignore kwslint/errwrap,kwslint/nosuch the second name is unknown
var mixed = 3
