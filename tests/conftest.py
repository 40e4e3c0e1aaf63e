import pytest

from diracmul.algebra import build_table_from_generators
from diracmul.fastmult import Stage, assemble_pipeline, verify_pipeline
from diracmul.linalg import Mat
from helpers import replace_stage


@pytest.fixture(scope="session")
def table():
    return build_table_from_generators()


@pytest.fixture(scope="session")
def verified_pipelines():
    """All three levels, assembled once and symbolically verified."""
    pipelines = {}
    for level in (1, 2, 3):
        pipe = assemble_pipeline(level)
        report = verify_pipeline(pipe)
        assert report.ok, report.summary()
        pipelines[level] = pipe
    return pipelines


@pytest.fixture(scope="session")
def planted_fault(verified_pipelines):
    """Level 3 with the sign of row 5 of its first stage flipped, and the
    product-matrix column that flip corrupts."""
    first = verified_pipelines[3].stages[0]
    entries = [list(row) for row in first.mat.entries]
    column = next(c for c, e in enumerate(entries[5]) if e)
    entries[5][column] = -entries[5][column]
    bad = Stage(first.name, mat=Mat(first.out_dim, first.in_dim, entries))
    return replace_stage(verified_pipelines[3], 0, bad), column
