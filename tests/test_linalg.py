import os
import random

import pytest

from diracmul.exactnum import INTS, CountingRing, DYADIC, DyadicRational, lf_from_b
from diracmul.fastmult import COMBINERS
from diracmul.linalg import (
    H2,
    Mat,
    SignedPermutation,
    T2X3,
    T3X2,
    dirsum,
    eye,
    int_mat_mul,
    kron,
    signed_perm_matrix,
    structural_apply,
    template_AB,
    template_EF,
)

from helpers import as_int, compose, is_identity, transpose
from linalg_helpers import lift, mat_mul, template_AB_factored, template_EF_factored


def rand_int_mat(rng, rows, cols, lo=-5, hi=5):
    return Mat(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_dyadic_mat(rng, n):
    return Mat(n, n, [[DyadicRational(rng.randint(-20, 20), rng.randint(0, 2)) for _ in range(n)] for _ in range(n)])


class TestMat:
    def test_ragged_rows_are_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch: want 2x2"):
            Mat(2, 2, [[1, 2], [3]])

    def test_arithmetic_is_the_entries_own_elementwise(self):
        rng = random.Random(41)
        a, b = rand_dyadic_mat(rng, 3), rand_dyadic_mat(rng, 3)
        for got, want in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y), (-a, lambda x, y: -x)):
            assert got == Mat(3, 3, [[want(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])
        forms = Mat(1, 2, [[lf_from_b(0), lf_from_b(1)]])
        assert -(forms - forms.map(lambda f: f + f)) == forms and H2 + -H2 == Mat(2, 2, [[0, 0], [0, 0]])

    def test_arithmetic_on_unequal_sizes_is_rejected(self):
        for other in (T2X3, eye(3), Mat(2, 3, [[0] * 3] * 2)):
            with pytest.raises(ValueError, match="size mismatch"):
                T3X2 + other
            with pytest.raises(ValueError, match="size mismatch"):
                T3X2 - other


class TestKron:
    def test_identity_times_identity(self):
        assert kron(eye(2), eye(4)) == eye(8)

    def test_kron_with_unit(self):
        assert kron(H2, eye(1)) == H2

    def test_combiner_action_on_stacked_vector(self):
        # expand T2x3 = [[1,0,1],[0,1,1]] over pairs: (x1,x2,x3) -> (x1+x3, x2+x3)
        m = kron(T2X3, eye(2))
        x1, x2, x3 = [1, 2], [30, 40], [500, 600]
        out = structural_apply(INTS, m, x1 + x2 + x3)
        assert out == [501, 602, 530, 640]

    def test_mixed_product_property(self):
        rng = random.Random(77)
        for _ in range(25):
            a = rand_int_mat(rng, 2, 3)
            b = rand_int_mat(rng, 3, 2)
            c = rand_int_mat(rng, 3, 2)
            d = rand_int_mat(rng, 2, 2)
            left = int_mat_mul(kron(a, b), kron(c, d))
            right = kron(int_mat_mul(a, c), int_mat_mul(b, d))
            assert left == right


class TestDirsum:
    def test_identities(self):
        assert dirsum([eye(2), eye(3)]) == eye(5)

    def test_block_hadamard_identity(self):
        assert dirsum([H2, H2]) == kron(eye(2), H2)

    def test_no_blocks_is_an_error(self):
        with pytest.raises(ValueError, match="direct sum of no blocks"):
            dirsum([])

    def test_product_property(self):
        rng = random.Random(5)
        a, b = rand_int_mat(rng, 2, 3), rand_int_mat(rng, 3, 3)
        c, d = rand_int_mat(rng, 3, 2), rand_int_mat(rng, 3, 3)
        left = int_mat_mul(dirsum([a, b]), dirsum([c, d]))
        right = dirsum([int_mat_mul(a, c), int_mat_mul(b, d)])
        assert left == right

    def test_final_core_block_sizes(self, verified_pipelines):
        sizes = [blk.size for blk in verified_pipelines[3].core.blocks]
        assert sizes == [4, 4, 4, 4, 2, 2, 2, 2, 1, 1, 1, 1, 2]
        assert sum(sizes) == 30


class TestSignedPermutation:
    def test_identity(self):
        p = SignedPermutation.identity(4)
        assert signed_perm_matrix(p) == eye(4)

    def test_reference_example(self):
        # order {1,2,4,3} with the last sign negative: swap rows 3,4 and
        # negate row 4
        p = SignedPermutation.from_one_based([1, 2, 4, 3], [4])
        assert signed_perm_matrix(p) == Mat(4, 4, [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ])

    def test_compose_with_inverse_is_identity(self):
        rng = random.Random(2)
        for _ in range(20):
            src = list(range(8))
            rng.shuffle(src)
            signs = [rng.choice((-1, 1)) for _ in range(8)]
            p = SignedPermutation(src, signs)
            assert is_identity(compose(p, p.inverse()))
            assert is_identity(compose(p.inverse(), p))

    def test_loaded_permutation_stages_apply_as_signed_permutations(self, verified_pipelines):
        # every signed-permutation asset a pipeline loads runs as its +-1 matrix
        rng = random.Random(6)
        checked = 0
        for pipe in verified_pipelines.values():
            for stage in pipe.stages:
                if stage.name in COMBINERS or stage.blocks is not None:  # defined in code, or the core
                    continue
                with open(os.path.join(pipe.asset_dir, f"{stage.name}.txt"), encoding="ascii") as fh:
                    (terms,) = [ln.split() for ln in fh if ln[0] != "#"]
                # term i is output i's signed source: "-4" takes minus input 4
                src = [int(t[1:]) for t in terms]
                signs = [-1 if t[0] == "-" else 1 for t in terms]
                m = stage.mat
                lines = list(m.entries) + [list(col) for col in zip(*m.entries)]
                assert all(sorted(map(abs, line)) == [0] * (len(line) - 1) + [1] for line in lines), stage.name
                vec = rng.sample(range(1, 1000), m.cols)
                assert structural_apply(INTS, m, vec) == [signs[i] * vec[src[i]] for i in range(m.rows)]
                checked += 1
        assert checked == 19  # 5 + 7 + 7 permutation stages in levels 1, 2, 3

    def test_orthogonality(self):
        p = SignedPermutation.from_one_based([3, 1, 4, 2], [2, 3])
        m = signed_perm_matrix(p)
        assert int_mat_mul(transpose(m), m) == eye(4)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            SignedPermutation([0, 0, 1])
        with pytest.raises(ValueError):
            SignedPermutation([0, 1], [2, 1])


class TestTemplates:
    def test_ab_trivial_cases(self):
        one = Mat(1, 1, [[1]])
        zero = Mat(1, 1, [[0]])
        assert template_AB(one, zero) == eye(2)
        assert template_AB(zero, one) == Mat(2, 2, [[0, 1], [1, 0]])

    def test_ef_trivial_cases(self):
        one = Mat(1, 1, [[1]])
        zero = Mat(1, 1, [[0]])
        assert template_EF(one, zero) == Mat(2, 2, [[1, 0], [0, -1]])
        assert template_EF(zero, one) == Mat(2, 2, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_ab_factorization_identity(self, n):
        rng = random.Random(100 + n)
        for _ in range(100):
            a = rand_dyadic_mat(rng, n)
            b = rand_dyadic_mat(rng, n)
            direct = template_AB(a, b)
            factored = template_AB_factored(DYADIC, a, b)
            assert factored == direct

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_ef_factorization_identity(self, n):
        rng = random.Random(200 + n)
        for _ in range(100):
            e = rand_dyadic_mat(rng, n)
            f = rand_dyadic_mat(rng, n)
            direct = template_EF(e, f)
            factored = template_EF_factored(DYADIC, e, f)
            assert factored == direct

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            template_AB(eye(2), eye(3))
        with pytest.raises(ValueError):
            template_EF(eye(2), eye(3))


class TestStructuralApply:
    def test_zero_entries_are_free(self):
        ring = CountingRing()
        vec = [ring.wrap(v) for v in (7, 9, 11)]
        structural_apply(ring, T3X2, vec[:2])
        # rows (1,0) and (0,1) are copies; only the (1,1) row adds
        assert ring.counter.additions == 1

    def test_data_zeros_still_count(self):
        ring = CountingRing()
        vec = [ring.wrap(0), ring.wrap(0)]
        structural_apply(ring, H2, vec)
        assert ring.counter.additions == 2

    def test_negative_entries_fold_into_neg_and_sub(self):
        ring = CountingRing()
        vec = [ring.wrap(3), ring.wrap(4)]
        out = structural_apply(ring, H2, vec)
        assert [as_int(v.value) for v in out] == [7, -1]
        assert ring.counter.additions == 2

    def test_a_vector_of_another_length_is_rejected(self):
        for vec in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match="vector length mismatch"):
                structural_apply(INTS, H2, vec)

    def test_int_matmul_of_unequal_inner_sizes_is_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            int_mat_mul(T2X3, T2X3)
        assert int_mat_mul(T2X3, T3X2) == Mat(2, 2, [[2, 1], [1, 2]])

    def test_serialize_grid_format(self):
        text = T2X3.serialize()
        assert text == "2 3\n1 0 1\n0 1 1\n"

    def test_ring_matmul_matches_int_matmul(self):
        rng = random.Random(31)
        a = rand_int_mat(rng, 3, 4)
        b = rand_int_mat(rng, 4, 2)
        got = mat_mul(DYADIC, lift(DYADIC, a), lift(DYADIC, b))
        want = lift(DYADIC, int_mat_mul(a, b))
        assert got == want
