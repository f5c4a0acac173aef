// Fixture for the suppression mechanism itself: an ignore without a
// reason is a finding of its own and suppresses nothing.
package ig

import "errors"

var ErrGone = errors.New("ig: gone")

func gone(err error) bool {
	//rekeylint:ignore
	return err == ErrGone
}
