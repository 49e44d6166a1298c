package canonjson

import "testing"

// readPair reads {"a":<int>,"b":<string>,"c":<bool>} and reports the
// values and whether the reader stayed inside the subset to the end.
func readPair(data string) (a int64, b string, c bool, ok bool) {
	r := NewReader([]byte(data))
	var seen uint64
	for more := r.Open('{'); more; more = r.Next('{') {
		switch string(r.Key()) {
		case "a":
			r.Once(&seen, 0)
			a = r.Int64()
		case "b":
			r.Once(&seen, 1)
			b = r.Str()
		case "c":
			r.Once(&seen, 2)
			c = r.Bool()
		default:
			r.Decline()
		}
	}
	return a, b, c, r.Done()
}

func TestReaderAcceptsTheSubset(t *testing.T) {
	for _, tc := range []struct {
		in string
		a  int64
		b  string
		c  bool
	}{
		{`{"a":12,"b":"x y","c":true}`, 12, "x y", true},
		{` { "a" : -7 , "b" : "" , "c" : false } ` + "\n", -7, "", false},
		{`{"a":0}`, 0, "", false},
		{`{}`, 0, "", false},
		{`{"a":999999999999999999}`, 999999999999999999, "", false},
		{`{"b":"~!#$%&'()*+,-./:;<=>?@[]^_{|}"}`, 0, "~!#$%&'()*+,-./:;<=>?@[]^_{|}", false},
	} {
		a, b, c, ok := readPair(tc.in)
		if !ok || a != tc.a || b != tc.b || c != tc.c {
			t.Errorf("%s: got (%d, %q, %v, ok=%v)", tc.in, a, b, c, ok)
		}
	}
}

func TestReaderDeclinesOutsideTheSubset(t *testing.T) {
	for _, in := range []string{
		``, ` `, `[]`, `null`, `{`, `{"a":1`, `{"a":1,}`, `{,}`, `{"a" 1}`,
		`{"A":1}`, `{"a":1,"a":2}`, `{"d":1}`, `{"b":"\n"}`,
		`{"b":"é"}`, "{\"b\":\"\x7f\"}", `{"b":"a\"b"}`, `{"b":null}`, `{"a":null}`,
		`{"a":-0}`, `{"a":01}`, `{"a":1.0}`, `{"a":1e2}`, `{"a":1E2}`, `{"a":+1}`,
		`{"a":-}`, `{"a":1234567890123456789}`, `{"c":tru}`, `{"c":True}`, `{"c":1}`,
		`{"a":1} {}`, `{"a":1}x`, `{"a":1}]`,
	} {
		if _, _, _, ok := readPair(in); ok {
			t.Errorf("%q: accepted, want declined", in)
		}
	}
}

// TestOffsetBracketsAValue: after Key the offset is the value's first
// byte and after the value its end, without the whitespace around it.
func TestOffsetBracketsAValue(t *testing.T) {
	data := []byte(`{"a" :  [1, 2]  ,"b":"x"}`)
	r := NewReader(data)
	if !r.Open('{') || string(r.Key()) != "a" {
		t.Fatal("no key a")
	}
	start := r.Offset()
	for more := r.Open('['); more; more = r.Next('[') {
		r.Int64()
	}
	if got := string(data[start:r.Offset()]); got != "[1, 2]" {
		t.Fatalf("value bytes %q", got)
	}
}
