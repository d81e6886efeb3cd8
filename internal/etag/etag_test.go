package etag

import "testing"

func TestMatch(t *testing.T) {
	const tag = `"abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{`"abc"`, true},
		{`W/"abc"`, true},
		{`*`, true},
		{` * `, true},
		{`"x", "abc"`, true},
		{`"x",W/"abc" , "y"`, true},
		{`"a,b", "abc"`, true}, // a comma inside a quoted tag is part of it
		{`"abc-gzip"`, false},
		{`"ab"`, false},
		{`abc`, false},
		{`"x", abc`, false},
		{`"abc`, false},
		{`W/`, false},
		{``, false},
		{`"x", "y"`, false},
	}
	for _, c := range cases {
		if got := Match(c.header, tag); got != c.want {
			t.Errorf("Match(%q, %s) = %v, want %v", c.header, tag, got, c.want)
		}
	}
	// Weak comparison is symmetric: a weak current tag matches its strong
	// spelling.
	if !Match(`"abc"`, `W/"abc"`) {
		t.Error(`W/"abc" must match "abc" under weak comparison`)
	}
}
