import pytest

from opident import jets


@pytest.fixture
def program_table():
    """jets._PROGRAMS, the one program table, emptied for the test and
    given back its entries after."""
    saved = dict(jets._PROGRAMS)
    jets._PROGRAMS.clear()
    yield jets._PROGRAMS
    jets._PROGRAMS.clear()
    jets._PROGRAMS.update(saved)
