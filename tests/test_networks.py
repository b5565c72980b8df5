"""Tests for network elements, factor programs, constants, and netlists."""

import math
import tracemalloc

import numpy as np
import pytest

from cvcluster.networks import (
    MAX_NETLIST_MODES,
    NetworkElement,
    NetworkProgram,
    beam_splitter,
    beam_splitter_block,
    element_matrix,
    emit_netlist,
    fourier,
    inverse_fourier,
    linear_cluster_unitary,
    linear_program,
    linear_to_square_phases,
    parse_netlist,
    program_matrix,
    square_cluster_unitary,
    swap,
    tshape_cluster_unitary,
    tshape_program,
)

TOL = 1e-12
SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


class TestBeamSplitterBlock:
    def test_full_transmission_entries(self):
        assert np.allclose(beam_splitter_block(1.0, +1), [[1, 0], [0, -1]], atol=0)
        assert np.allclose(beam_splitter_block(1.0, -1), [[1, 0], [0, 1]], atol=0)

    def test_one_to_four_entries(self):
        block = beam_splitter_block(1 / SQRT5, -1)
        assert np.allclose(block, [[1 / SQRT5, 2 / SQRT5], [-2 / SQRT5, 1 / SQRT5]], atol=1e-15)

    @pytest.mark.parametrize("t", [0.1, 1 / SQRT5, 1 / SQRT2, 0.9])
    def test_block_determinant_sign(self, t):
        assert np.linalg.det(beam_splitter_block(t, +1)) == pytest.approx(-1.0, abs=TOL)
        assert np.linalg.det(beam_splitter_block(t, -1)) == pytest.approx(+1.0, abs=TOL)


class TestElements:
    def test_fourier_matrix(self):
        m = element_matrix(fourier(3), 4).matrix
        assert np.array_equal(m, np.diag([1, 1, 1j, 1]))

    def test_fourier_four_times_is_identity(self):
        m = element_matrix(fourier(2), 4).matrix
        assert np.max(np.abs(np.linalg.matrix_power(m, 4) - np.eye(4))) < TOL

    def test_inverse_fourier_is_adjoint(self):
        f = element_matrix(fourier(1), 2).matrix
        finv = element_matrix(inverse_fourier(1), 2).matrix
        assert np.array_equal(finv, f.conj().T)

    def test_swap_is_involution(self):
        m = element_matrix(swap(1, 3), 4).matrix
        assert np.array_equal(m @ m, np.eye(4))

    def test_beam_splitter_embedding(self):
        m = element_matrix(beam_splitter(2, 3, 1 / SQRT5, -1), 4).matrix
        assert m[1, 1] == pytest.approx(1 / SQRT5)
        assert m[1, 2] == pytest.approx(2 / SQRT5)
        assert m[2, 1] == pytest.approx(-2 / SQRT5)
        assert m[2, 2] == pytest.approx(1 / SQRT5)
        # identity outside its modes
        assert m[0, 0] == 1 and m[3, 3] == 1 and m[0, 3] == 0

    @pytest.mark.parametrize("element", [
        fourier(1),
        inverse_fourier(4),
        swap(2, 4),
        beam_splitter(1, 3, 0.6, +1),
        beam_splitter(3, 1, 1 / SQRT2, -1),
    ])
    def test_element_unitarity(self, element):
        m = element_matrix(element, 4).matrix
        assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < TOL

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            element_matrix(fourier(5), 4)

    def test_identical_modes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            swap(2, 2)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1.5, -0.3])
    def test_transmittance_range_enforced(self, t):
        with pytest.raises(ValueError, match="transmittance"):
            beam_splitter(1, 2, t, +1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            NetworkElement("BS", (1, 2), 0.5)

    @pytest.mark.parametrize("modes", [(1.7,), (True,), ("1",), (None,), 3, (np.float64(0.5),)])
    def test_non_integer_modes_rejected(self, modes):
        with pytest.raises(ValueError, match="^modes: "):
            NetworkElement("F", modes)

    @pytest.mark.parametrize("modes", [("1", 2), (1, True), (1, 2.5)])
    def test_non_integer_two_mode_indices_rejected(self, modes):
        with pytest.raises(ValueError, match="^modes: "):
            NetworkElement("SWAP", modes)

    def test_integral_modes_pass_as_ints(self):
        element = NetworkElement("BS+", (np.int64(1), 2.0), 0.5)
        assert element.modes == (1, 2)
        assert all(type(m) is int for m in element.modes)

    @pytest.mark.parametrize("t", ["0.5", True, None, [0.5], complex(0.5), math.nan])
    def test_non_real_transmittance_rejected(self, t):
        with pytest.raises(ValueError, match="^t: "):
            NetworkElement("BS-", (1, 2), t)

    def test_real_transmittance_stored_as_float(self):
        element = NetworkElement("BS-", (1, 2), np.float32(0.5))
        assert type(element.t) is float and element.t == 0.5


class TestPrograms:
    def test_empty_program_is_identity(self):
        m = program_matrix(NetworkProgram(4)).matrix
        assert np.array_equal(m, np.eye(4))

    def test_linear_factors_reproduce_matrix(self):
        dev = np.max(np.abs(program_matrix(linear_program()).matrix - linear_cluster_unitary().matrix))
        assert dev < TOL

    def test_tshape_factors_reproduce_matrix(self):
        dev = np.max(np.abs(program_matrix(tshape_program()).matrix - tshape_cluster_unitary().matrix))
        assert dev < TOL

    def test_three_beam_splitters_each(self):
        for program in (linear_program(), tshape_program()):
            assert sum(e.kind.startswith("BS") for e in program.elements) == 3

    def test_linear_splitter_transmittances(self):
        ts = sorted(e.t for e in linear_program().elements if e.kind.startswith("BS"))
        assert ts == pytest.approx([1 / SQRT5, 1 / SQRT2, 1 / SQRT2])

    def test_tshape_splitter_transmittances(self):
        ts = [e.t for e in tshape_program().elements if e.kind.startswith("BS")]
        assert ts == pytest.approx([1 / SQRT2] * 3)

    @pytest.mark.parametrize("program", [linear_program(), tshape_program()])
    def test_program_matrix_unitary(self, program):
        m = program_matrix(program).matrix
        assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < TOL

    def test_program_matrix_memory_does_not_grow_with_length(self):
        # 500 dense 64-mode element matrices take 32 MB; the product keeps one alive at a time
        lines = [f"BS+ {k % 63 + 1} {k % 63 + 2} 0.6" if k % 2 else f"F {k % 64 + 1}" for k in range(500)]
        program = parse_netlist("MODES 64\n" + "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            program_matrix(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak

    def test_element_beyond_mode_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            NetworkProgram(2, (fourier(3),))

    @pytest.mark.parametrize("n_modes", [2.5, True, "4", 0])
    def test_mode_count_must_be_a_positive_integer(self, n_modes):
        with pytest.raises(ValueError, match="n_modes"):
            NetworkProgram(n_modes)

    def test_integral_mode_count_is_stored_as_int(self):
        assert type(NetworkProgram(np.int64(3)).n_modes) is int
        assert NetworkProgram(3.0) == NetworkProgram(3)


class TestConstants:
    def test_linear_entries(self):
        u = linear_cluster_unitary().matrix
        assert u[0, 0] == pytest.approx(1 / SQRT2, abs=1e-15)
        assert u[2, 3] == pytest.approx(1j / SQRT2, abs=1e-15)
        assert u[0, 3] == 0

    def test_square_entries(self):
        u = square_cluster_unitary().matrix
        assert u[0, 0] == pytest.approx(-1 / SQRT2, abs=1e-15)
        assert u[3, 3] == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_tshape_entries(self):
        u = tshape_cluster_unitary().matrix
        assert u[0, 0] == pytest.approx(1j / SQRT2, abs=1e-15)
        assert u[1, 2] == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("make", [
        linear_cluster_unitary,
        square_cluster_unitary,
        tshape_cluster_unitary,
        linear_to_square_phases,
    ])
    def test_constants_unitary(self, make):
        m = make().matrix
        assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < TOL

    def test_square_from_linear_phases(self):
        product = linear_to_square_phases().matrix @ linear_cluster_unitary().matrix
        assert np.max(np.abs(product - square_cluster_unitary().matrix)) < TOL


class TestNetlist:
    @pytest.mark.parametrize("program", [linear_program(), tshape_program(), NetworkProgram(3)])
    def test_round_trip(self, program):
        assert parse_netlist(emit_netlist(program)) == program

    def test_transmittance_round_trip_is_bit_exact(self):
        program = NetworkProgram(2, (beam_splitter(1, 2, 1 / 3, +1),))
        parsed = parse_netlist(emit_netlist(program))
        assert parsed.elements[0].t == program.elements[0].t

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\nMODES 2\n# one rotation\nF 1\n"
        assert parse_netlist(text) == NetworkProgram(2, (fourier(1),))

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="MODES"):
            parse_netlist("F 1\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_netlist("\n# nothing here\n")

    def test_mode_count_capped(self):
        assert parse_netlist(f"MODES {MAX_NETLIST_MODES}\n").n_modes == MAX_NETLIST_MODES
        # the header alone is rejected; nothing of that size is allocated
        with pytest.raises(ValueError, match="cap"):
            parse_netlist(f"MODES {MAX_NETLIST_MODES + 1}\n")
        with pytest.raises(ValueError, match="cap"):
            parse_netlist("MODES 100000\nF 1\n")

    @pytest.mark.parametrize("line", ["XY 1", "F 1 2", "BS+ 1 2", "BS- 1 2 nope", "SWAP 3",
                                      "F", "BS+", "BS+ 1 2 0.5 7", "SWAP 1 1", "F 1.5"])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError, match="line 2"):
            parse_netlist(f"MODES 4\n{line}\n")

    @pytest.mark.parametrize("line", ["BS+", "BS+ 1 2", "BS+ 1 2 0.5 7", "BS- 1 2 nope extra"])
    def test_beam_splitter_field_count_named(self, line):
        with pytest.raises(ValueError, match="line 2: .*two mode indices and a transmittance"):
            parse_netlist(f"MODES 4\n{line}\n")
