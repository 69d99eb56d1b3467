import tauforge


def test_every_exported_name_resolves():
    missing = [name for name in tauforge.__all__ if not hasattr(tauforge, name)]
    assert missing == []
    assert len(set(tauforge.__all__)) == len(tauforge.__all__)
