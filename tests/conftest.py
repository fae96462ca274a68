"""Every config the suite loads is read by PyYAML too.

load_config reads YAML with qnaps.yamldoc; for the whole session its
reader is wrapped so that each text it returns a value for is also read
by yaml.safe_load, which must give an equal value of the same types
(tests/test_yamldoc.py holds the reader to PyYAML over random texts).
"""

from types import SimpleNamespace

import pytest
import yaml

from qnaps import config, yamldoc


@pytest.fixture(autouse=True, scope="session")
def _configs_read_as_safe_load_reads_them():
    from _helpers import same_yaml

    def read(text):
        value = yamldoc.read(text)
        assert same_yaml(value, yaml.safe_load(text)), text
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "yamldoc", SimpleNamespace(read=read))
        yield
