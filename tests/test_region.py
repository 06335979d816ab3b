import math

import numpy as np
import pytest

from lexineq.errors import NonPositiveScaleError
from lexineq.region import (
    Disc,
    Generic,
    HyperbolaDomain,
    Invert,
    Membership,
    ObliqueHalfPlane,
    Region,
    Rotate,
    Scale,
    Sqrt,
    Translate,
    VerticalHalfPlane,
    apply_transform,
    classify,
    contains,
    membership_grid,
    principal_angle,
)

IN, OUT, POLE = Membership.IN, Membership.OUT, Membership.POLE


class TestContains:
    def test_base_halfplane(self):
        assert contains(Region(0j), 1 - 3j) is IN

    def test_rotated_halfplane(self):
        assert contains(Region(0j, (Rotate(math.pi / 2),)), 1j) is IN

    def test_inversion_pole(self):
        assert contains(Region(1 + 0j, (Invert(),)), 0j) is POLE

    def test_sqrt_origin(self):
        assert contains(Region(-1 + 0j, (Sqrt(),)), 0j) is IN

    def test_boundary_halfline(self):
        # on the boundary line only im >= anchor.imag is included
        assert contains(Region(1 + 1j), 1 + 1j) is IN
        assert contains(Region(1 + 1j), 1 + 2j) is IN
        assert contains(Region(1 + 1j), 1 + 0.5j) is OUT
        assert contains(Region(1 + 1j), 0.5 + 9j) is OUT

    def test_rejects_nonfinite_probe(self):
        with pytest.raises(ValueError):
            contains(Region(0j), complex(float("nan"), 0))


class TestApplyTransform:
    probes = [0.3 + 0.7j, -1 + 2j, 2 - 0.5j, 1.25 + 0j, -0.5 - 0.5j]

    def test_identity_rotation(self):
        base = Region(0.5 + 0.25j, (Sqrt(),))
        rotated = apply_transform(base, Rotate(0.0))
        for w in self.probes:
            assert contains(rotated, w) is contains(base, w)

    def test_identity_dilation(self):
        base = Region(0.5 + 0.25j, (Invert(),))
        scaled = apply_transform(base, Scale(1.0))
        for w in self.probes:
            assert contains(scaled, w) is contains(base, w)

    def test_translate_halfplane(self):
        region = apply_transform(Region(0j), Translate(2 + 0j))
        assert contains(region, 2 + 0j) is IN
        assert contains(region, 1.9 + 0j) is OUT

    def test_scale_must_be_positive(self):
        with pytest.raises(NonPositiveScaleError):
            apply_transform(Region(0j), Scale(0.0))
        with pytest.raises(NonPositiveScaleError):
            Scale(-2.0)

    @pytest.mark.parametrize("make, what", [(Scale, "scale factor"), (Rotate, "angle")])
    @pytest.mark.parametrize("value", [10**400, -10**400])
    def test_int_beyond_float_range_refused(self, make, what, value):
        with pytest.raises(ValueError, match=f"^{what} lies outside the float range$"):
            make(value)

    def test_chain_is_appended_outermost_last(self):
        r = apply_transform(apply_transform(Region(0j), Invert()), Rotate(1.0))
        assert isinstance(r.transforms[0], Invert)
        assert isinstance(r.transforms[1], Rotate)


def _random_region(rng):
    transforms = []
    for _ in range(int(rng.integers(0, 4))):
        k = int(rng.integers(0, 5))
        if k == 0:
            transforms.append(Rotate(float(rng.uniform(-7, 7))))
        elif k == 1:
            transforms.append(Scale(float(rng.uniform(0.25, 4.0))))
        elif k == 2:
            transforms.append(Translate(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        elif k == 3:
            transforms.append(Invert())
        else:
            transforms.append(Sqrt())
    return Region(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), tuple(transforms))


class TestPullbackIdentities:
    """contains(apply_transform(R, T), W) equals contains(R, T-pulled W),
    computed here with plain Python complex arithmetic, exactly."""

    def test_all_transforms(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            base = _random_region(rng)
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            theta = float(rng.uniform(-7, 7))
            reduced = principal_angle(theta)
            cis = complex(math.cos(reduced), -math.sin(reduced))
            assert contains(apply_transform(base, Rotate(theta)), w) is contains(base, w * cis)
            r = float(rng.uniform(0.25, 4.0))
            assert contains(apply_transform(base, Scale(r)), w) is contains(base, w / r)
            off = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert contains(apply_transform(base, Translate(off)), w) is contains(base, w - off)
            assert contains(apply_transform(base, Sqrt()), w) is contains(base, w * w)
            if w != 0:
                assert contains(apply_transform(base, Invert()), w) is contains(base, 1 / w)

    def test_invert_pole(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = _random_region(rng)
            assert contains(apply_transform(base, Invert()), 0j) is POLE

    def test_sqrt_central_symmetry(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            region = apply_transform(_random_region(rng), Sqrt())
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert contains(region, w) is contains(region, -w)

    def test_rotation_composition(self):
        rng = np.random.default_rng(11)
        eps = 1e-9
        checked = 0
        for _ in range(400):
            anchor = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha, beta = rng.uniform(-3, 3, 2)
            split = Region(anchor, (Rotate(alpha), Rotate(beta)))
            merged = Region(anchor, (Rotate(alpha + beta),))
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            # guard against probes whose pulled-back value sits on the
            # base boundary, where the two paths may round differently
            pulled = w * complex(math.cos(alpha + beta), -math.sin(alpha + beta))
            if abs(pulled.real - anchor.real) < eps:
                continue
            checked += 1
            assert contains(split, w) is contains(merged, w)
        assert checked > 350


class TestGrid:
    def test_matches_scalar(self):
        rng = np.random.default_rng(3)
        region = Region(0.5 - 0.25j, (Invert(), Rotate(0.8), Translate(1 - 1j)))
        zr = np.concatenate([rng.uniform(-2, 2, 50), [0.0, -1.0]])
        zi = np.concatenate([rng.uniform(-2, 2, 50), [0.0, 1.0]])
        codes = membership_grid(region, zr, zi)
        for k in range(zr.shape[0]):
            assert codes[k] == int(contains(region, complex(zr[k], zi[k])))


class TestClassify:
    def test_vertical(self):
        c = classify(Region(2 + 3j))
        assert isinstance(c, VerticalHalfPlane)
        assert c.boundary_re == 2.0

    def test_oblique(self):
        c = classify(Region(1 - 1j, (Rotate(0.7),)))
        assert isinstance(c, ObliqueHalfPlane)
        assert c.normal_angle == pytest.approx(0.7)
        assert c.offset == 1.0

    def test_disc(self):
        c = classify(Region(0.5 + 0j, (Invert(),)))
        assert isinstance(c, Disc)
        assert c.center == pytest.approx(1 + 0j)
        assert c.radius == pytest.approx(1.0)

    def test_disc_with_outer_transforms(self):
        region = Region(1 + 0j, (Invert(), Rotate(math.pi / 2), Scale(2.0), Translate(1 + 1j)))
        c = classify(region)
        assert isinstance(c, Disc)
        # base circle: center 0.5, radius 0.5 -> rotate: 0.5i -> scale: i, r=1 -> translate
        assert c.center.real == pytest.approx(1.0)
        assert c.center.imag == pytest.approx(2.0)
        assert c.radius == pytest.approx(1.0)

    def test_disc_requires_positive_anchor(self):
        assert isinstance(classify(Region(-0.5 + 0j, (Invert(),))), Generic)
        assert isinstance(classify(Region(0j, (Invert(),))), Generic)

    def test_hyperbola_connected(self):
        c = classify(Region(-2 + 0j, (Sqrt(),)))
        assert isinstance(c, HyperbolaDomain)
        assert c.a1 == -2.0 and c.connected and c.contains_origin

    def test_hyperbola_disconnected(self):
        c = classify(Region(3 + 1j, (Sqrt(),)))
        assert isinstance(c, HyperbolaDomain)
        assert c.a1 == 3.0 and not c.connected and not c.contains_origin

    def test_hyperbola_with_outer_scale_is_generic(self):
        assert isinstance(classify(Region(1 + 0j, (Sqrt(), Scale(2.0)))), Generic)

    def test_disc_never_contradicts_contains(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a1 = float(rng.uniform(0.1, 5.0))
            region = Region(complex(a1, rng.uniform(-1, 1)), (Invert(),))
            c = classify(region)
            assert isinstance(c, Disc)
            for _ in range(50):
                angle = rng.uniform(0, 2 * math.pi)
                rad = rng.uniform(0, 1.5) * c.radius
                w = c.center + rad * complex(math.cos(angle), math.sin(angle))
                if abs(rad - c.radius) < 1e-6 or w == 0:
                    continue
                inside = rad < c.radius
                assert (contains(region, w) is IN) == inside


class TestconstructionValidation:
    def test_rotate_angle_reduced(self):
        assert Rotate(3 * math.pi).theta == pytest.approx(math.pi)
        assert Rotate(-math.pi).theta == math.pi
        assert -math.pi < Rotate(123.456).theta <= math.pi

    def test_principal_angle_fast_path_preserves_bits(self):
        assert principal_angle(1.25) == 1.25
        assert principal_angle(math.pi) == math.pi

    def test_region_rejects_nonfinite_base(self):
        with pytest.raises(ValueError):
            Region(complex(float("inf"), 0))

    def test_region_rejects_non_transform(self):
        with pytest.raises(TypeError):
            Region(0j, ("rotate",))
