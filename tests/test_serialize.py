from fractions import Fraction as F

import pytest

import finprob as fp
from finprob import serialize
from finprob.sampling import random_mp_kernel, rng_for

R = fp.rational_mode()


class TestRoundtrips:
    def test_space_rational_bit_exact(self):
        space = fp.make_space([F(1, 3), F(0), F(2, 3)], R)
        text = serialize.dumps(space)
        again = serialize.loads(text)
        assert again.same_as(space)
        assert serialize.dumps(again) == text

    def test_space_float(self):
        space = fp.make_space([0.1, 0.2, 0.7])
        again = serialize.loads(serialize.dumps(space))
        assert again.same_as(space)

    def test_kernel_rational(self):
        u2 = fp.uniform_space(2, R)
        q = fp.make_space([F(3, 4), F(1, 4)], R)
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], u2, q)
        text = serialize.dumps(k)
        again = serialize.loads(text)
        assert fp.as_equal_kernels(again, k)
        assert serialize.dumps(again) == text

    def test_kernel_float_roundtrip_exact_doubles(self):
        rng = rng_for(100)
        k = random_mp_kernel(rng, 3, 4, fp.FLOAT_DEFAULT)
        again = serialize.loads(serialize.dumps(k))
        assert [list(r) for r in again.rows] == [list(r) for r in k.rows]

    def test_rv(self):
        space = fp.make_space([F(1, 2), F(1, 2)], R)
        f = fp.RandomVar([F(-3, 7), F(22, 7)], space)
        again = serialize.loads(serialize.dumps(f))
        assert list(again.values) == list(f.values)

    def test_vec_rv(self):
        space = fp.make_space([F(1, 2), F(1, 2)], R)
        g = fp.VecRandomVar([[1, F(1, 3)], [2, F(2, 3)]], space)
        again = serialize.loads(serialize.dumps(g))
        assert [list(r) for r in again.values] == [list(r) for r in g.values]

    def test_file_roundtrip(self, tmp_path):
        space = fp.make_space([F(1, 4), F(3, 4)], R)
        path = tmp_path / "space.txt"
        serialize.dump(space, path)
        assert serialize.load(path).same_as(space)

    def test_mode_preserved(self):
        space = fp.make_space([0.5, 0.5], fp.float_mode(1e-6))
        again = serialize.loads(serialize.dumps(space))
        assert again.mode == space.mode


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("matrix\nmode rational\n")

    def test_bad_number(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("space\nmode rational\nweights 1/0\n")

    def test_missing_field(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("kernel\nmode rational\nrow 1\n")

    def test_non_ascii_file_names_path_and_offset(self, tmp_path):
        path = tmp_path / "accent.txt"
        path.write_bytes("rv\nmode rational\n# caf\u00e9\nweights 1\nvalues 1\n".encode())
        message = r"accent\.txt: not ascii text: byte 0xc3 at offset 22"
        with pytest.raises(fp.ConfigParseError, match=message):
            serialize.load(path)

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nspace\nmode rational\nweights 1\n"
        assert serialize.loads(text).size == 1
